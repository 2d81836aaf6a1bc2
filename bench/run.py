"""debris-ews benchmark: runs the real subcommands in-process and times them.

    python3 bench/run.py --workload fit --seed 42 --seconds 30 --trace 0

Set-up synthesizes the workload's corpora from sub-seeds of --seed with the
repo's own `synth` and builds each one's dataset. The timed part then runs the
pipeline chain PASS_OPS through `debris_ews.cli.main(argv)` in rounds of one
pass on each corpus, until --seconds have passed. Every pass trains, scores,
assesses and explains; the workloads differ in corpus and sizes, so a different
stage dominates each (see bench/NOTES.md).

With --trace 0 the last stdout line reports the end-to-end metrics: times
scaled to a reference host speed (see REFERENCE_S), each the median over rounds
(one pass on every corpus) of the round's mean. With --trace 1 every corpus
gets an untraced and then a traced pass; the line reports the per-layer
metrics of the traced passes and the tracing overhead. Every op's outputs are
checked against invariants; an exception, a non-zero exit code, a failed check
or an artifact whose sha256 differs between two passes on one corpus, or from an
earlier run of the same workload and seed on the same sources, counts as a
failed op.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: results and timings are single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ROOT_SCAN_REPS = 3
# On a shared 2-vCPU host the speed drifts by up to 2x over minutes, and it drops
# by a third for spells of a few seconds. Before and after every op the benchmark
# times the Reference probe, built from the two kinds of work the program does:
# interpreted Python (parsing CSV rows with timestamps) and numpy (sorting and
# gathering). Reported times are the measured times scaled to a host on which the
# probe takes REFERENCE_S. An op's estimate of the probe time is a weighted
# geometric mean of the mean of its two probes and of the median probe of its
# pass. The op's own probes share a slow spell with a short op, and the median is
# steadier for a long op, so the own probes weigh SPELL_S / (SPELL_S + op seconds).
# The times as measured and the probe times are printed and kept in the run record.
REFERENCE_S = 0.015
SPELL_S = 2.0
GBT_FEATURES = ["--hours", "6", "--daily", "7", "--daily-weighted", "--include-ear"]
# Models train on the train split; every later op scores all windows, because the
# test split's size swings by 10-30% between seeds and the whole set's by a few %.
SCORED = ["--split", "all"]


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; why each exists is in bench/NOTES.md and BENCHMARK.json.

    A run sets up `corpora` corpora from sub-seeds of --seed and rotates the
    passes over them, so one run's medians need not rest on the window counts and
    tree sizes of a single small corpus. Each corpus is `synth` for the GBT and
    every op after training, plus an `rf_synth` corpus for the RF, or the same
    corpus when that is None.
    """

    corpora: int
    synth: tuple[str, ...]
    rf_synth: tuple[str, ...] | None
    rf: tuple[str, ...]
    gbt: tuple[str, ...]
    reps: int
    explain_rows: int
    background_rows: int


WORKLOADS = {
    # The RF grows at the default depth and leaf size on the default corpus (42
    # stations x 42 weeks, 0.75 storms/week), the matrix the full pipeline trains
    # on. The GBT and the ops after training use a small wet corpus, so that a pass
    # stays short enough to repeat within a run; the ops after training score the
    # default-corpus RF on it.
    "fit": Workload(
        corpora=2,
        synth=("--stations", "12", "--weeks", "10", "--storms-per-week", "6"),
        rf_synth=(),
        rf=("--trees", "2"),
        gbt=("--trees", "6"),
        reps=30,
        explain_rows=8,
        background_rows=16,
    ),
    "assess": Workload(
        corpora=3,
        synth=("--stations", "10", "--weeks", "10", "--storms-per-week", "6"),
        rf_synth=None,
        rf=("--trees", "10", "--max-depth", "8", "--min-samples-leaf", "32"),
        gbt=("--trees", "1"),
        reps=80,
        explain_rows=12,
        background_rows=64,
    ),
}

# Timed subcommands of one pass, in pipeline order; each is one op.
PASS_OPS = (
    "train_rf",
    "train_gbt",
    "eval",
    "sweep_baselines",
    "bootstrap_ci_auprc",
    "bootstrap_ci_auroc",
    "operating_points",
    "event_capture",
    "explain",
)
# Ops with an end-to-end metric of their own; operating_points counts toward wall_s only.
E2E_OPS = tuple(op for op in PASS_OPS if op != "operating_points")
# Artifact -> op that writes it; its sha256 must repeat on every pass over one corpus.
FINGERPRINTS = {
    "rf/model.json": "train_rf",
    "gbt/model.json": "train_gbt",
    "eval/scores.csv": "eval",
    "base/etm_scores.csv": "sweep_baselines",
    "ci_auprc/ci.json": "bootstrap_ci_auprc",
    "ci_auroc/ci.json": "bootstrap_ci_auroc",
    "explain/attributions.csv": "explain",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_scores(path: Path):
    """(labels, scores) of a scores CSV, parsed here rather than by the cli code under check."""
    import numpy as np

    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([int(r["label"]) for r in rows]), np.array([float(r["score"]) for r in rows])


def median(values) -> float:
    return float(statistics.median(values))


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them; the run reports exactly these."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


UNITS = declared_units()


def source_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources, the code that the
    fingerprints belong to; unlike a git commit it exists in any checkout."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(f"{path.relative_to(ROOT)}\0{sha256(path)}\n".encode())
    return h.hexdigest()


class Reference:
    """The fixed host-speed probe; its inputs are built once per process.

    Its time is the geometric mean of its two parts' times, so that each kind of
    work weighs equally whatever its share of the probe's time.
    """

    def __init__(self) -> None:
        import numpy as np

        self.csv_text = "station_id,timestamp,rainfall_mm\n" + "".join(
            f"S{i % 7:03d},2020-{1 + i % 12:02d}-{1 + i % 28:02d}T{i % 24:02d}:00:00+00:00,{i % 101 / 7!r}\n"
            for i in range(3000)
        )
        self.values = np.random.default_rng(0).random(100_000)

    def seconds(self) -> float:
        import numpy as np
        from datetime import datetime

        t0 = time.perf_counter()
        per_station: dict[str, list] = {}
        for row in csv.DictReader(io.StringIO(self.csv_text)):
            stamp = datetime.fromisoformat(row["timestamp"].strip())
            per_station.setdefault(row["station_id"].strip(), []).append((stamp, float(row["rainfall_mm"])))
        t1 = time.perf_counter()
        order = np.argsort(self.values, kind="stable")
        np.cumsum(self.values[order])
        self.values[order[::3]].sum()
        t2 = time.perf_counter()
        return ((t1 - t0) * (t2 - t1)) ** 0.5


class Bench:
    """One run of one workload: its corpora, its ops, their checks and failures."""

    def __init__(self, name: str, seed: int, work: Path):
        from debris_ews import cli, metrics, modelio

        self.cli, self.metrics, self.modelio = cli, metrics, modelio
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.fingerprint_ops: dict[str, str] = {}
        self.corpora: list[tuple[Path, Path]] = []  # (corpus, RF corpus) pairs
        self.tracer = None  # set while a traced pass runs
        self.reference = Reference()
        self.timed: list[tuple[str, float, float, float]] = []  # (op, seconds, probes) since the last scaled()
        self.log: list[tuple[str, float, float, float]] = []  # the same, for the whole run

    # -- one subcommand ----------------------------------------------------

    def op(self, name: str, argv: list[str], check=None) -> float:
        """Run one subcommand; return its wall time. Checks run outside the timed region."""
        self.attempted += 1
        before = self.reference.seconds()
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), (self.tracer.span(f"op.{name}") if self.tracer else nullcontext()):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        self.timed.append((name, seconds, before, self.reference.seconds()))
        problem = None if rc == 0 else f"exit {rc}"
        if problem is None and check is not None:
            try:
                problem = check()
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{name}: {problem}")
        return seconds

    def scaled(self) -> tuple[dict[str, float], float]:
        """The ops timed since the last call: op -> reference-host seconds (summed over
        repeats of one op), and the median probe time."""
        level = median(p for _, _, before, after in self.timed for p in (before, after))
        out: dict[str, float] = {}
        for name, seconds, before, after in self.timed:
            own = SPELL_S / (SPELL_S + seconds)
            probe = ((before + after) / 2) ** own * level ** (1 - own)
            out[name] = out.get(name, 0.0) + seconds * REFERENCE_S / probe
        self.log.extend(self.timed)
        self.timed = []
        return out, level

    # -- set-up ------------------------------------------------------------

    def corpus_seed(self, i: int) -> str:
        return str(1000 * self.seed + i)

    def setup(self, i: int) -> float:
        """Synthesize corpus i (and its RF corpus) and build the datasets; return the time taken."""
        d = self.work / f"corpus{i}"
        t = self.synthesize(d, self.corpus_seed(i), self.w.synth, f"corpus{i}")
        r = d
        if self.w.rf_synth is not None:
            r = self.work / f"rf_corpus{i}"
            t += self.synthesize(r, self.corpus_seed(i), self.w.rf_synth, f"rf_corpus{i}")
        self.corpora.append((d, r))
        return t

    def synthesize(self, d: Path, seed: str, synth: tuple[str, ...], key: str) -> float:
        t = self.op("synth", ["synth", "--seed", seed, "--out", str(d), *synth])
        t += self.op(
            "build_dataset",
            ["build-dataset", "--rainfall", str(d / "rainfall.csv"), "--events", str(d / "debris_events.csv"),
             "--out", str(d / "data"), "--seed", seed],
        )
        for rel in ("rainfall.csv", "data/manifest.json"):
            self.fingerprint(d / rel, f"{key}/{rel}", "build_dataset")
        return t

    # -- one pass of the pipeline -------------------------------------------

    def run_pass(self, k: int, i: int) -> dict[str, float]:
        """Run the chain on corpus i into pass directory k; return each op's time."""
        d = self.work / f"pass{k}"
        c, r = self.corpora[i]
        data = ["--rainfall", str(c / "rainfall.csv"), "--manifest", str(c / "data/manifest.json")]
        rf_data = ["--rainfall", str(r / "rainfall.csv"), "--manifest", str(r / "data/manifest.json")]
        rf_model, eval_scores = d / "rf/model.json", d / "eval/scores.csv"
        etm_scores = d / "base/etm_scores.csv"
        seed = ["--seed", self.corpus_seed(i)]
        w = self.w
        t = {
            "train_rf": self.op(
                "train_rf",
                ["train", *rf_data, "--out", str(d / "rf"), *seed, "--threads", "1", *w.rf],
                lambda: self.check_resave(rf_model),
            ),
            "train_gbt": self.op(
                "train_gbt",
                ["train", *data, "--out", str(d / "gbt"), *seed, "--threads", "1", "--model", "gbt",
                 *w.gbt, *GBT_FEATURES],
                lambda: self.check_resave(d / "gbt/model.json"),
            ),
            "eval": self.op(
                "eval",
                ["eval", "--model", str(rf_model), *data, *SCORED, "--out", str(d / "eval")],
                lambda: self.check_eval(d),
            ),
            "sweep_baselines": self.op(
                "sweep_baselines",
                ["sweep-baselines", *data, *SCORED, "--thresholds", str(c / "thresholds.csv"),
                 "--out", str(d / "base")],
                lambda: self.check_baselines(d),
            ),
            "bootstrap_ci_auprc": self.op(
                "bootstrap_ci_auprc",
                ["bootstrap-ci", "--scores", str(eval_scores), "--out", str(d / "ci_auprc"), *seed,
                 "--reps", str(w.reps)],
                lambda: self.check_ci(d / "ci_auprc/ci.json", d / "eval/metrics.json", ("auprc",)),
            ),
            "bootstrap_ci_auroc": self.op(
                "bootstrap_ci_auroc",
                ["bootstrap-ci", "--scores", str(etm_scores), "--out", str(d / "ci_auroc"), *seed,
                 "--reps", str(w.reps), "--stat", "auroc"],
                lambda: self.check_ci(d / "ci_auroc/ci.json", d / "base/baselines.json", ("etm", "auroc")),
            ),
            "operating_points": self.op(
                "operating_points",
                ["operating-points", "--scores", str(eval_scores), "--out", str(d / "op")],
                lambda: self.check_operating_points(d / "op/operating_points.csv"),
            ),
            "event_capture": self.op(
                "event_capture",
                ["event-capture", "--scores", str(eval_scores), *data, "--out", str(d / "capture")],
                lambda: self.check_capture(d / "capture/event_capture.csv"),
            ),
            "explain": self.op(
                "explain",
                ["explain", "--model", str(rf_model), *data, *SCORED, "--out", str(d / "explain"), *seed,
                 "--max-rows", str(w.explain_rows), "--background-rows", str(w.background_rows)],
                lambda: self.check_explain(d / "explain/explain.json"),
            ),
        }
        for rel, op in FINGERPRINTS.items():
            self.fingerprint(d / rel, f"corpus{i}/{rel}", op)
        return t

    def drop_pass(self, k: int) -> None:
        shutil.rmtree(self.work / f"pass{k}", ignore_errors=True)

    # -- output checks: invariants, never fixed values ------------------------

    def fingerprint(self, path: Path, key: str, op: str) -> None:
        if not path.exists():
            return  # the op that should have written it already failed
        digest = sha256(path)
        first = self.fingerprints.setdefault(key, digest)
        self.fingerprint_ops[key] = op
        if digest != first:
            self.failures.append(f"{op}: {key} sha256 {digest[:16]} differs from {first[:16]} of an earlier pass")

    def check_earlier_runs(self, path: Path) -> None:
        """Compare the fingerprints with those of earlier runs of this workload and seed
        on the same sources and numpy, kept in `path`, then add this run's. Passes in one
        process share its hash seed and set order; this catches what varies between
        processes."""
        earlier = json.loads(path.read_text()) if path.exists() else {}
        for key, digest in self.fingerprints.items():
            if earlier.get(key, digest) != digest:
                self.failures.append(f"{self.fingerprint_ops[key]}: {key} sha256 {digest[:16]} differs from "
                                     f"{earlier[key][:16]} of an earlier run")
        path.write_text(json.dumps({**self.fingerprints, **earlier}, indent=1, sort_keys=True) + "\n")

    def check_resave(self, path: Path) -> str | None:
        doc = json.loads(path.read_text())
        model, spec = self.modelio.load_model(path)
        again = path.with_name("resaved.json")
        self.modelio.save_model(again, model, feature_spec=spec, meta=doc["meta"])
        if again.read_bytes() != path.read_bytes():
            return f"{path.name} does not re-save byte-identically"
        return None

    def check_eval(self, d: Path) -> str | None:
        doc = json.loads((d / "eval/metrics.json").read_text())
        labels, scores = read_scores(d / "eval/scores.csv")
        recomputed = self.metrics.auprc(scores, labels)
        if doc["auprc"] != recomputed:
            return f"metrics.json AUPRC {doc['auprc']!r} != {recomputed!r} recomputed from scores.csv"
        if not doc["auprc"] > labels.mean():
            return f"AUPRC {doc['auprc']!r} does not exceed the prevalence {labels.mean()!r} of the scored hours"
        return None

    def check_baselines(self, d: Path) -> str | None:
        doc = json.loads((d / "base/baselines.json").read_text())
        labels, scores = read_scores(d / "base/etm_scores.csv")
        recomputed = self.metrics.auroc(scores, labels)
        if doc["etm"]["auroc"] != recomputed:
            return f"ETM AUROC {doc['etm']['auroc']!r} != {recomputed!r} recomputed from etm_scores.csv"
        return None

    def check_ci(self, path: Path, source: Path, key: tuple[str, ...]) -> str | None:
        ci = json.loads(path.read_text())
        if not ci["lower"] <= ci["point"] <= ci["upper"]:
            return f"{path.parent.name}: not lower <= point <= upper: {ci['lower']}, {ci['point']}, {ci['upper']}"
        expected = json.loads(source.read_text())
        for k in key:
            expected = expected[k]
        if ci["point"] != expected:
            return f"{path.parent.name}: point {ci['point']!r} != {expected!r} in {source.name}"
        return None

    def check_operating_points(self, path: Path) -> str | None:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        return None if len(rows) == 18 else f"{len(rows)} operating points, expected 18 default targets"

    def check_capture(self, path: Path) -> str | None:
        with path.open(newline="") as fh:
            rows = [(int(r["captured"]), int(r["missed"])) for r in csv.DictReader(fh)]
        flows = {c + m for c, m in rows}
        captured = [c for c, _ in rows]
        if len(rows) != 101 or len(flows) != 1 or 0 in flows:
            return "event capture rows do not cover one fixed, non-empty set of flows at 101 thresholds"
        if any(b > a for a, b in zip(captured, captured[1:])):
            return "captured flows increase with the alert threshold"
        return None

    def check_explain(self, path: Path) -> str | None:
        err = json.loads(path.read_text())["local_accuracy_max_error"]
        return None if err <= 1e-9 else f"local accuracy error {err!r} > 1e-9"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(setups: list[float], passes: list[dict[str, float]], corpora: int) -> dict[str, float]:
    """setup_s is the median set-up. Each pass time is the median over rounds of its
    mean over the round: a round is `corpora` consecutive passes, one on each corpus, so
    every round times the same inputs. Passes of an unfinished round are not timed."""
    rounds = [passes[r:r + corpora] for r in range(0, len(passes) - corpora + 1, corpora)]

    def per_round(op: str | None) -> float:
        return median(statistics.fmean(sum(p.values()) if op is None else p[op] for p in r) for r in rounds)

    m = {
        "setup_s": median(setups),
        "wall_s": per_round(None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for op in E2E_OPS:
        m[f"{op}_s"] = per_round(op)
    return m


def to_host(values: dict[str, float], factor: float) -> dict[str, float]:
    """Scale measured times (by their declared unit) to the reference host."""
    per_unit = {"s": factor, "ms": factor, "rows/s": 1 / factor}
    return {n: v * per_unit.get(UNITS[n], 1) for n, v in values.items()}


def layer_metrics(spans, explain_json: Path, factor: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (spans recorded during that pass only);
    times are scaled by the pass's reference-host factor."""
    from spans import count_sum, self_seconds, total

    read_s = total(spans, "rainfall.read_csv")
    forest_s, gbt_s = total(spans, "forest.fit"), total(spans, "gbt.fit")
    boot_s, shap_s = total(spans, "bootstrap.ci"), total(spans, "explain.shap")
    reps = count_sum(spans, "bootstrap.ci", "replicates")
    m = {
        "rainfall.read_csv_s": read_s,
        "rainfall.read_csv_calls": sum(1 for s in spans if s.name == "rainfall.read_csv"),
        "rainfall.rows_per_s": count_sum(spans, "rainfall.read_csv", "rows") / read_s,
        "dataset.build_examples_s": total(spans, "dataset.build_examples"),
        "dataset.read_manifest_s": total(spans, "dataset.read_manifest"),
        "dataset.example_rows": count_sum(spans, "forest.fit", "rows"),
        "dataset.rf_zero_fraction": count_sum(spans, "forest.fit", "zero_fraction"),
        "dataset.gbt_zero_fraction": count_sum(spans, "gbt.fit", "zero_fraction"),
        "baselines.window_ear_s": total(spans, "baselines.window_ear"),
        "baselines.scores_s": total(spans, "baselines.scores"),
        "baselines.predict_s": total(spans, "baselines.predict"),
        "forest.fit_s": forest_s,
        "forest.s_per_tree": forest_s / count_sum(spans, "forest.fit", "trees"),
        "forest.nodes": count_sum(spans, "forest.fit", "nodes"),
        "forest.predict_s": total(spans, "forest.predict"),
        "gbt.fit_s": gbt_s,
        "gbt.s_per_stage": gbt_s / count_sum(spans, "gbt.fit", "trees"),
        "gbt.nodes": count_sum(spans, "gbt.fit", "nodes"),
        "modelio.save_s": total(spans, "modelio.save"),
        "modelio.load_s": total(spans, "modelio.load"),
        "modelio.model_bytes": count_sum(spans, "modelio.save", "bytes"),
        "metrics.curve_s": total(spans, "metrics.curve"),
        "metrics.curve_points": count_sum(spans, "metrics.curve", "points"),
        "metrics.event_capture_s": total(spans, "metrics.event_capture"),
        "metrics.operating_points_s": total(spans, "metrics.operating_points"),
        "bootstrap.ci_s": boot_s,
        "bootstrap.ms_per_rep": 1000 * boot_s / reps,
        "bootstrap.kept_ratio": count_sum(spans, "bootstrap.ci", "kept") / reps,
        "explain.shap_s": shap_s,
        "explain.ms_per_row": 1000 * shap_s / count_sum(spans, "explain.shap", "rows"),
        "explain.leaves": count_sum(spans, "explain.shap", "leaves"),
        "explain.background_s": total(spans, "explain.background"),
        "explain.local_accuracy_max_err": json.loads(explain_json.read_text())["local_accuracy_max_error"],
        "cli.write_scores_s": total(spans, "cli.write_scores"),
        "cli.read_scores_s": total(spans, "cli.read_scores"),
    }
    for s in spans:
        if s.name.startswith("op."):
            m[f"cli.{s.name[3:]}.self_s"] = self_seconds(spans, s)
    m["trace.spans_per_pass"] = len(spans)
    return to_host(m, factor)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_major_minor": ".".join(np.__version__.split(".")[:2]),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


def traced(bench: Bench, tracer, fn, *args):
    """Run fn(*args) with every cli -> library call recorded; return (result, its spans)."""
    first = len(tracer.spans)
    bench.tracer = tracer
    try:
        with tracer.patched(bench.cli):
            out = fn(*args)
    finally:
        bench.tracer = None
    return out, tracer.since(first)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer
    from debris_ews.trees import TreeParams, fit_tree

    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, work)
    corpora = bench.w.corpora
    env = environment()
    tracer = Tracer()
    raw = {"setups": [], "passes": [], "probes": [], "ops": bench.log}  # as measured, for the record
    setups: list[float] = []
    setup_layers: list[dict[str, float]] = []
    untraced: list[dict[str, float]] = []
    traced_passes: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    try:
        for k in range(corpora):
            t, sp = traced(bench, tracer, bench.setup, k) if trace else (bench.setup(k), [])
            times, probe = bench.scaled()
            factor = REFERENCE_S / probe
            raw["setups"].append(t)
            raw["probes"].append(probe)
            setups.append(sum(times.values()))
            setup_layers.append(to_host({f"{n}_s": sum(s.seconds for s in sp if s.name == n)
                                         for n in ("synth.generate", "rainfall.write_csv")}, factor))

        # Passes run in whole rounds, one pass on each corpus, until --seconds have
        # passed. Traced runs pair an untraced and a traced pass on each corpus, so
        # their difference is the tracing overhead and their outputs must match.
        start = time.perf_counter()
        round_passes = corpora * (2 if trace else 1)
        k = 0
        while k == 0 or k % round_passes or time.perf_counter() - start < seconds:
            i = (k // 2 if trace else k) % corpora
            if trace and k % 2 == 1:
                t, sp = traced(bench, tracer, bench.run_pass, k, i)
                times, probe = bench.scaled()
                traced_passes.append(times)
                layers.append(layer_metrics(sp, work / f"pass{k}/explain/explain.json", REFERENCE_S / probe))
            else:
                t = bench.run_pass(k, i)
                times, probe = bench.scaled()
                untraced.append(times)
            raw["passes"].append(t)
            raw["probes"].append(probe)
            if k:
                bench.drop_pass(k - 1)
            k += 1

        if not trace:
            values = end_to_end(setups, untraced, corpora)
            measured = end_to_end(raw["setups"], raw["passes"], corpora)
        else:
            values = {n: median(layer[n] for layer in layers) for n in layers[0]}
            values.update({n: median(s[n] for s in setup_layers) for n in setup_layers[0]})
            X, y = tracer.last_args["forest.fit"][:2]
            for _ in range(ROOT_SCAN_REPS):
                before = bench.reference.seconds()
                t0 = time.perf_counter()
                fit_tree(X, y, params=TreeParams(max_depth=1))
                bench.timed.append(("root_scan", time.perf_counter() - t0, before, bench.reference.seconds()))
            values["trees.root_scan_s"] = bench.scaled()[0]["root_scan"] / ROOT_SCAN_REPS
            values["trace.overhead_s"] = median(
                sum(t.values()) - sum(u.values()) for u, t in zip(untraced, traced_passes)
            )
            values["host.reference_ms"] = 1000 * median(raw["probes"])
            measured = {}
            spans_path = WORK / f"spans-{workload}-seed{seed}.json"
            spans_path.write_text(json.dumps(tracer.as_records()) + "\n")
        kind = "end_to_end" if not trace else "per_layer"
        declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
        if sorted(values) != sorted(declared):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} are not both measured and declared")
        bench.check_earlier_runs(
            WORK / f"fingerprints-{workload}-seed{seed}-{env['source_sha256'][:16]}-numpy{env['numpy_major_minor']}.json"
        )
        return {
            "workload": workload,
            "seed": seed,
            "passes": k,
            "attempted": bench.attempted,
            "failures": bench.failures,
            "fingerprints": bench.fingerprints,
            "measured": raw,
            "environment": env,
            "metrics": {n: (values[n], UNITS[n]) for n in declared},
            "measured_metrics": measured,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "debris_ews" / "cli.py").is_file():
        print(f"error: no debris_ews sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    env = record["environment"]
    probes = record["measured"]["probes"]
    print(f"reference probe {1000 * median(probes):.3f} ms "
          f"(min {1000 * min(probes):.3f}, max {1000 * max(probes):.3f}); "
          f"times below are scaled to a {1000 * REFERENCE_S:g} ms probe")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['passes']} passes in ~{args.seconds:g} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, digest in sorted(record["fingerprints"].items()):
        print(f"sha256 {key} {digest} (numpy {env['numpy_major_minor']})")
    for name, (value, unit) in record["metrics"].items():
        measured = record["measured_metrics"].get(name)
        note = "" if measured is None else f"   (as measured: {measured:.6g} {unit})"
        print(f"{name:36s} {value:>14.6g} {unit}{note}")
    failed = len(record["failures"])
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"ops_failed = {failed} of {record['attempted']} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
