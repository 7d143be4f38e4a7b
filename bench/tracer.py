"""Per-layer tracing from outside the program.

Each traced layer is a public function of a holdscan module. `install`
finds the function object and rebinds every module-level name in the
holdscan package that refers to it, so calls made through those names (for
example `holdscan.tuning.train`, `holdscan.classifier.featurize`) pass
through a wrapper. The wrapper records a span (name, start, end, parent) in
memory, or, for the two layers called per row or per candidate, only adds
its duration to per-layer totals and to the enclosing span's child time.

A layer whose function no longer exists, is never called, or whose
arguments no longer fit the counter is reported as absent with a reason:
never as zero, and never by raising.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

Counter = Callable[[inspect.BoundArguments, object], dict]


def _examples_x_epochs(args, result):
    return {"examples": len(args.arguments["examples"]) * args.arguments["config"].epochs}


def _len_result(key):
    return lambda args, result: {key: len(result)}


def _checkpoint_bytes(args, result):
    path = Path(args.arguments["path"])
    if not path.exists():
        path = path.with_name(path.name + ".npz")
    return {"bytes": path.stat().st_size}


def _threshold_inputs(args, result):
    folds = args.arguments["per_fold_predictions"]
    sums = set()
    for probs, _ in folds:
        if hasattr(probs, "shape"):
            sums.update((probs[:, 1] + probs[:, 2]).tolist())
        else:
            sums.update(p.p1 + p.p2 for p in probs)
    return {"folds": len(folds), "candidates": len(sums) + 1}  # + reject-all sentinel


def _corpus_rows(args, result):
    return {"rows": result.n_turns()}


def _audit_size(args, result):
    calls = args.arguments["corpus"].calls
    return {"calls": len(calls), "holds": sum(len(c.holds) for c in calls)}


@dataclass(frozen=True)
class Layer:
    """A traced function: metric prefix, defining module, attribute name."""

    name: str
    module: str
    attr: str
    leaf: bool = False          # aggregate only, no span per call
    counter: Optional[Counter] = None
    deferred: bool = False      # run the counter after the chain, outside any span


LAYERS = (
    Layer("classifier.train", "holdscan.classifier", "train", counter=_examples_x_epochs),
    Layer("classifier.featurize", "holdscan.classifier", "featurize", leaf=True),
    Layer("classifier.predict_proba", "holdscan.classifier", "predict_proba",
          counter=_len_result("rows")),
    Layer("classifier.save_checkpoint", "holdscan.classifier", "save_checkpoint",
          counter=_checkpoint_bytes),
    Layer("classifier.load_checkpoint", "holdscan.classifier", "load_checkpoint"),
    Layer("classifier.load_external_proba", "holdscan.classifier", "load_external_proba",
          counter=_len_result("rows")),
    Layer("classifier.write_proba", "holdscan.classifier", "write_proba"),
    Layer("tuning.run_cross_validation", "holdscan.tuning", "run_cross_validation"),
    Layer("tuning.shared_threshold_search", "holdscan.tuning", "shared_threshold_search",
          counter=_threshold_inputs, deferred=True),
    Layer("metrics.macro_prf", "holdscan.metrics", "macro_prf", leaf=True),
    Layer("metrics.roc_auc_ovr_macro", "holdscan.metrics", "roc_auc_ovr_macro"),
    Layer("metrics.metric_bundle", "holdscan.metrics", "metric_bundle"),
    Layer("corpus.io.ingest_transcripts", "holdscan.corpus.io", "ingest_transcripts",
          counter=_corpus_rows),
    Layer("corpus.io.ingest_holds", "holdscan.corpus.io", "ingest_holds"),
    Layer("corpus.split.stratified_split", "holdscan.corpus.split", "stratified_split"),
    Layer("decision.decide_batch", "holdscan.decision", "decide_batch",
          counter=_len_result("rows")),
    Layer("compliance.audit_corpus", "holdscan.compliance", "audit_corpus",
          counter=_audit_size),
)


@dataclass
class _Stats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=dict)
    count_error: Optional[str] = None


class Tracer:
    """Spans and per-layer totals for one process; nothing is written until `dump`."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.stats: dict[str, _Stats] = {}
        self.missing: dict[str, str] = {}
        self.distinct_texts: set[str] = set()
        self._stack: list[list] = []  # [span index, child seconds]
        self._deferred: list[tuple[Layer, inspect.BoundArguments, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            try:
                module = importlib.import_module(layer.module)
                original = getattr(module, layer.attr)
            except (ImportError, AttributeError) as exc:
                self.missing[layer.name] = f"{layer.module}.{layer.attr} not found ({exc})"
                continue
            wrapper = self._wrap(layer, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("holdscan"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        stats = self.stats.setdefault(layer.name, _Stats())
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        is_featurize = layer.name == "classifier.featurize"

        def wrapper(*args, **kwargs):
            if is_featurize and args:
                self.distinct_texts.add(args[0])
            if layer.leaf:
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                dur = time.perf_counter() - t0
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur
                if self._stack:
                    self._stack[-1][1] += dur
                return result
            result = self.span(layer.name, fn, args, kwargs, stats)
            if layer.counter is not None:
                self._count(layer, signature, args, kwargs, result, stats)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn: Callable, args=(), kwargs=None, stats=None):
        """Call fn inside a recorded span and return its result."""
        stats = stats if stats is not None else self.stats.setdefault(name, _Stats())
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            self.spans[index] = (name, t0, t1, parent)
            stats.calls += 1
            stats.total += dur
            stats.self_time += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _count(self, layer, signature, args, kwargs, result, stats) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if layer.deferred:
                self._deferred.append((layer, bound, result))
            else:
                self._add_counts(stats, layer.counter(bound, result))
        except Exception as exc:  # the counter must never break the traced program
            stats.count_error = f"counter failed: {type(exc).__name__}: {exc}"

    @staticmethod
    def _add_counts(stats: _Stats, counts: dict) -> None:
        for key, value in counts.items():
            stats.counts[key] = stats.counts.get(key, 0) + value

    # -- reporting ----------------------------------------------------------

    def finish(self) -> None:
        """Run deferred counters; call once the traced chain has ended."""
        if "classifier.featurize" in self.stats:
            self.stats["classifier.featurize"].counts["distinct"] = len(self.distinct_texts)
        for layer, bound, result in self._deferred:
            stats = self.stats[layer.name]
            try:
                self._add_counts(stats, layer.counter(bound, result))
            except Exception as exc:  # same rule as _count
                stats.count_error = f"counter failed: {type(exc).__name__}: {exc}"
        self._deferred.clear()

    def summary(self) -> dict:
        """Per-layer calls, seconds, self seconds and counts, plus absences."""
        layers = {name: {"calls": s.calls, "s": s.total, "self_s": s.self_time,
                         "counts": s.counts, "count_error": s.count_error}
                  for name, s in self.stats.items()}
        return {"layers": layers, "missing": self.missing}

    def dump(self, path: Path) -> None:
        """Write the spans (times relative to the first span) as JSON lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_s": start - origin,
                                     "end_s": end - origin, "parent": parent}) + "\n")
