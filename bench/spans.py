"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around the calls that `debris_ews.cli` makes into the
library layers: the benchmark swaps the names the cli module imported for
timing wrappers while a traced pass runs, and puts the originals back after
it. The program itself is not modified. Each span holds its name, start,
end, parent span and a few counts taken from the call's arguments or result.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


def _zero_fraction(X) -> float:
    return float((X == 0).sum() / X.size)


def _forest_counts(args, kwargs, model) -> dict:
    X = args[0]
    return {
        "rows": int(X.shape[0]),
        "zero_fraction": _zero_fraction(X),
        "trees": len(model.trees),
        "nodes": sum(t.n_nodes for t in model.trees),
    }


def _shap_counts(args, kwargs, result) -> dict:
    model, X = args[0], args[1]
    return {"rows": int(X.shape[0]), "leaves": sum(t.n_leaves for t in model.trees)}


def _bootstrap_counts(args, kwargs, ci) -> dict:
    return {"replicates": ci.replicates, "kept": ci.replicates - ci.skipped_replicates}


# cli-module name -> (span name, counts taken from (args, kwargs, result) or None)
CLI_LAYERS: dict[str, tuple[str, Callable[..., dict] | None]] = {
    "generate_corpus": ("synth.generate", None),
    "write_rainfall_csv": ("rainfall.write_csv", None),
    "read_rainfall_csv": ("rainfall.read_csv", lambda a, k, r: {"rows": sum(len(s) for s in r)}),
    "read_manifest": ("dataset.read_manifest", None),
    "build_examples": ("dataset.build_examples", None),
    "fit_forest": ("forest.fit", _forest_counts),
    "fit_gbt": ("gbt.fit", _forest_counts),
    "save_model": ("modelio.save", lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}),
    "load_model": ("modelio.load", None),
    "predict_proba": ("forest.predict", None),
    "roc_curve": ("metrics.curve", lambda a, k, r: {"points": len(r)}),
    "pr_curve": ("metrics.curve", lambda a, k, r: {"points": len(r)}),
    "compute_window_ear": ("baselines.window_ear", None),
    "etm_scores": ("baselines.scores", None),
    "hm_scores": ("baselines.scores", None),
    "etm_predict": ("baselines.predict", None),
    "hm_predict": ("baselines.predict", None),
    "block_bootstrap_ci": ("bootstrap.ci", _bootstrap_counts),
    "operating_points": ("metrics.operating_points", None),
    "event_capture": ("metrics.event_capture", None),
    "subsample_background": ("explain.background", None),
    "tree_shap_batch": ("explain.shap", _shap_counts),
    "write_scores_csv": ("cli.write_scores", None),
    "read_scores_csv": ("cli.read_scores", None),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, Any] = field(default_factory=dict)

    # Time the tracer spent inside this span on its children's counts, which is
    # the benchmark's work, not the span's own.
    tracer_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one process; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.last_args: dict[str, tuple] = {}  # arguments of the latest call, by span name

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, counts: Callable[..., dict] | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                t0 = time.perf_counter()
                sp.counts = counts(args, kwargs, result)
                if sp.parent is not None:
                    self.spans[sp.parent].tracer_s += time.perf_counter() - t0
            self.last_args[name] = args
            return result

        return traced

    @contextmanager
    def patched(self, module):
        """Route the module's calls into the library through span wrappers."""
        originals = {attr: getattr(module, attr) for attr in CLI_LAYERS}
        try:
            for attr, (name, counts) in CLI_LAYERS.items():
                setattr(module, attr, self.wrap(name, originals[attr], counts))
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def since(self, first: int) -> list[Span]:
        return self.spans[first:]

    def as_records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "counts": s.counts,
             "tracer_s": s.tracer_s}
            for s in self.spans
        ]


def total(spans: list[Span], name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def count_sum(spans: list[Span], name: str, key: str) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def self_seconds(spans: list[Span], span: Span) -> float:
    """Span duration minus the time its direct children cover (calls nest, so they never
    overlap) and minus the time the tracer spent in it on the children's counts."""
    return span.seconds - span.tracer_s - sum(s.seconds for s in spans if s.parent == span.id)
