"""Workload inputs, command chains and output checks.

Every input is made from the workload seed with the library's generator
(`generate_synthetic`), cut to a fixed number of turns so that seeds differ
in content but not in size, and written to CSV by this module (not by the
program under test), so two commits read byte-identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from holdscan import (
    REJECT_ALL_THRESHOLD,
    Corpus,
    audit_corpus,
    collect_violations,
    generate_synthetic,
    gold_predictions,
    load_checkpoint,
    load_external_proba,
    predict_proba,
    save_checkpoint,
    select_best_checkpoint,
    train,
)
from holdscan.config import RunConfig

from distinct import rewrite_distinct

# Mean rows per call of the default profile is ~30; over-generate, then cut.
_ROWS_PER_CALL_LOW = 20
# A k-fold stratified split needs k turns of each class; the CLI's k is 10.
MIN_PER_CLASS = 10
# The fixture model trains on a corpus from this offset of the workload seed.
FIXTURE_SEED_OFFSET = 1_000_003
FIXTURE_TURNS = 6000
# A shared threshold must equal one validation sum; this absorbs float
# reassociation between the pipeline's scoring path and predict_proba.
THRESHOLD_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json."""

    name: str
    turns: int
    distinct: bool
    flow: str  # "cv": trained pipeline; "score": predict -> pipeline --external-proba -> audit


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv_templated", 3000, distinct=False, flow="cv"),
        Workload("score_audit", 12000, distinct=True, flow="score"),
    )
}


def corpus_of(seed: int, turns: int, distinct: bool) -> tuple[Corpus, list]:
    """The first calls of generate_synthetic(., seed) holding at least `turns` turns.

    More calls are taken while a class has fewer than MIN_PER_CLASS turns,
    so every seed can be split into 10 stratified folds.
    """
    n_calls = turns // _ROWS_PER_CALL_LOW + 10
    while True:
        corpus, ledger = generate_synthetic(n_calls, seed)
        calls, total, per_class = [], 0, [0, 0, 0]
        for call in corpus.calls:
            if total >= turns and min(per_class) >= MIN_PER_CLASS:
                break
            calls.append(call)
            total += len(call.turns)
            for t in call.turns:
                per_class[t.label] += 1
        if total >= turns and min(per_class) >= MIN_PER_CLASS:
            break
        n_calls *= 2
    kept = {c.call_id for c in calls}
    corpus = Corpus(calls=tuple(calls), provenance="synthetic", seed=seed)
    ledger = [v for v in ledger if v.call_id in kept]
    if distinct:
        corpus = rewrite_distinct(corpus, seed)
    return corpus, ledger


def write_inputs(corpus: Corpus, directory: Path) -> dict[str, Path]:
    transcripts, holds = directory / "transcripts.csv", directory / "holds.csv"
    with open(transcripts, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("call_id", "turn_index", "channel", "start_ms", "end_ms", "text", "label"))
        for t in corpus.iter_turns():
            writer.writerow((t.call_id, t.turn_index, t.channel, t.start_ms, t.end_ms, t.text, t.label))
    with open(holds, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("call_id", "hold_start_ms", "hold_end_ms"))
        for call in corpus.calls:
            for h in call.holds:
                writer.writerow((call.call_id, h.hold_start_ms, h.hold_end_ms))
    return {"transcripts": transcripts, "holds": holds}


def train_fixture(seed: int, path: Path) -> None:
    """Train and save the checkpoint that `score_audit` scores with."""
    corpus, _ = corpus_of(seed + FIXTURE_SEED_OFFSET, FIXTURE_TURNS, distinct=True)
    examples = [(t.text, t.label) for t in corpus.iter_turns()]
    cfg = RunConfig(seed=seed)
    # Every tenth turn validates; the rest train.
    fit = [e for i, e in enumerate(examples) if i % 10]
    val = examples[::10]
    best = select_best_checkpoint(train(fit, cfg.train_config(), cfg.feature_spec(), val))
    save_checkpoint(path, best)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


@dataclass
class Inputs:
    corpus: Corpus
    ledger: list
    files: dict[str, Path]
    digests: dict[str, str]


def prepare(workload: Workload, seed: int, directory: Path) -> Inputs:
    corpus, ledger = corpus_of(seed, workload.turns, workload.distinct)
    files = write_inputs(corpus, directory)
    if workload.flow == "score":
        files["model"] = directory / "fixture.npz"
        train_fixture(seed, files["model"])
    return Inputs(corpus, ledger, files, {k: sha256(p) for k, p in files.items()})


def commands(workload: Workload, inputs: Inputs, seed: int, out: Path) -> list[list[str]]:
    f = {k: str(p) for k, p in inputs.files.items()}
    if workload.flow == "cv":
        return [["pipeline", "--transcripts", f["transcripts"], "--seed", str(seed),
                 "--out-dir", str(out)]]
    preds = str(out / "preds.csv")
    return [
        ["predict", "--model", f["model"], "--transcripts", f["transcripts"], "--out", preds],
        ["pipeline", "--transcripts", f["transcripts"], "--external-proba", preds,
         "--seed", str(seed), "--out-dir", str(out)],
        ["audit", "--transcripts", f["transcripts"], "--holds", f["holds"], "--proba", preds,
         "--threshold", "{shared_threshold}", "--out", str(out / "audit.json")],
    ]


# --- checks ----------------------------------------------------------------


def _violation_keys(violations) -> set[tuple]:
    return {(v.call_id, v.kind, v.hold_start_ms, v.hold_end_ms, v.turn_index) for v in violations}


def check_gold_audit(inputs: Inputs) -> list[str]:
    """The audit of gold labels must reproduce the generator's ledger exactly."""
    reports, _ = audit_corpus(inputs.corpus, gold_predictions(inputs.corpus))
    found, truth = _violation_keys(collect_violations(reports)), _violation_keys(inputs.ledger)
    if found != truth:
        return [f"gold audit finds {len(found)} violations, ledger has {len(truth)} "
                f"({len(found ^ truth)} differ)"]
    return []


def _audit_violations(report: dict) -> set[tuple]:
    out = set()
    for call in report["calls"]:
        cid = call["call_id"]
        for h in call["holds"]:
            if not h["opening_ok"]:
                out.add((cid, "missing_opening", h["hold_start_ms"], h["hold_end_ms"], None))
            if not h["closing_ok"]:
                out.add((cid, "missing_closing", h["hold_start_ms"], h["hold_end_ms"], None))
        for u in call["unregistered"]:
            out.add((cid, "unregistered_hold", None, None, u["turn_index"]))
    return out


def _check_threshold(threshold: float, sums: set[float]) -> list[str]:
    if threshold == REJECT_ALL_THRESHOLD or any(abs(threshold - s) <= THRESHOLD_TOL for s in sums):
        return []
    return [f"shared threshold {threshold!r} is neither a validation p1+p2 sum nor the sentinel"]


def check_outputs(workload: Workload, inputs: Inputs, out: Path) -> tuple[list[str], dict]:
    """Check one iteration's artifacts; return (failures, quality figures)."""
    failures: list[str] = []
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    shared = json.loads((out / "shared_threshold.json").read_text(encoding="utf-8"))
    plan = json.loads((out / "fold_plan.json").read_text(encoding="utf-8"))
    threshold = metrics["shared_threshold"]
    if shared["shared_threshold"] != threshold:
        failures.append("shared_threshold.json disagrees with metrics.json")
    test_fold = plan["test_fold"]
    keys_by_fold: dict[int, list] = {}
    for cid, idx, fold in sorted(plan["assignment"]):
        keys_by_fold.setdefault(fold, []).append((cid, idx))
    expected_keys = {t.key for t in inputs.corpus.iter_turns()}
    if {k for ks in keys_by_fold.values() for k in ks} != expected_keys:
        failures.append("fold plan does not cover exactly the corpus turns")

    sums: set[float] = set()
    quality = {"test_f1_macro": metrics["mean_test_metrics"]["f1_macro"],
               "val_f1_macro": metrics["validation_mean_f1"],
               "shared_threshold": threshold}
    if workload.flow == "cv":
        for fold, keys in keys_by_fold.items():
            if fold == test_fold:
                continue
            model = load_checkpoint(out / "models" / f"fold_{fold}.npz")
            texts = [inputs.corpus.turn(k).text for k in keys]
            sums.update(p.p1 + p.p2 for p in predict_proba(model, texts, model.feature_spec))
    else:
        proba = load_external_proba(out / "preds.csv")
        if set(proba) != expected_keys:
            failures.append(f"preds.csv has {len(proba)} rows for {len(expected_keys)} turns")
        for fold, keys in keys_by_fold.items():
            if fold != test_fold:
                sums.update(proba[k].p1 + proba[k].p2 for k in keys if k in proba)
        report = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        predicted, truth = _audit_violations(report), _violation_keys(inputs.ledger)
        summary = Counter({kind: n for kind, n in report["summary"].items() if n})
        if summary != Counter(v[1] for v in predicted):
            failures.append("audit.json summary disagrees with its per-call records")
        hits = len(predicted & truth)
        quality["violation_f1"] = 2 * hits / (len(predicted) + len(truth)) if predicted or truth else 1.0
        quality["violations_predicted"] = len(predicted)
        quality["violations_ledger"] = len(truth)
    quality["validation_candidates"] = len(sums) + 1
    failures += _check_threshold(threshold, sums)
    f1 = quality["test_f1_macro"]
    if not 0.0 < f1 <= 1.0:
        failures.append(f"test F1-macro {f1!r} outside (0, 1]")
    return failures, quality
