"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from holdscan.classifier import (
    FeatureSpec,
    ProbTriple,
    TrainConfig,
    _featurize_many,
    weighted_ce_loss_and_grad,
)
from holdscan.cli import run_cli, run_pipeline
from holdscan.compliance import AuditConfig, audit_corpus, collect_violations, gold_predictions
from holdscan.config import RunConfig
from holdscan.corpus import Call, Corpus, PhraseTurn, generate_synthetic, stratified_split
from holdscan.decision import DecisionRule, decide_batch
from holdscan.metrics import binary_auc, confusion, macro_prf
from holdscan.tuning import run_cross_validation, shared_threshold_search

from conftest import SavedFoldModels, flat_corpus, tree_bytes
from oracles import (
    exhaustive_threshold_search,
    random_prob_triple,
    reference_decide,
    trapezoid_auc,
)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_decision_rule_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    start = time.monotonic()
    for _ in range(10_000):
        p = random_prob_triple(rng)
        # a random threshold, then the row's own sum to exercise the >= boundary exactly
        for threshold in (float(rng.random()), p[1] + p[2]):
            if decide_batch([p], DecisionRule(threshold)) != [reference_decide(p, threshold)]:
                mismatches += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "decide_batch matches the direct gated-argmax restatement on 10,000 random rows, "
        "each at a random threshold and at its own p1 + p2",
        mismatches == 0 and elapsed < 1.0,
        f"{mismatches} mismatches, {elapsed:.3f}s",
    )


def test_criterion_2_threshold_search_oracle():
    triples = [
        ProbTriple(0.8, 0.15, 0.05),
        ProbTriple(0.4, 0.5, 0.1),
        ProbTriple(0.7, 0.2, 0.1),
        ProbTriple(0.1, 0.2, 0.7),
    ]
    labels = [0, 1, 0, 2]
    threshold, f1 = shared_threshold_search([(triples, labels)])
    worked_ok = threshold == pytest.approx(0.6, abs=1e-12) and f1 == 1.0

    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(500):
        n_folds = int(rng.integers(1, 6))
        remaining = int(rng.integers(n_folds, 201))
        folds = []
        for f in range(n_folds):
            left = n_folds - 1 - f
            n = remaining - left if left == 0 else int(rng.integers(1, remaining - left + 1))
            remaining -= n
            probs = [random_prob_triple(rng) for _ in range(n)]
            folds.append((probs, rng.integers(0, 3, size=n).tolist()))
        _, got_f1 = shared_threshold_search(
            [([ProbTriple(*p) for p in probs], labels) for probs, labels in folds]
        )
        _, want_f1 = exhaustive_threshold_search(folds)
        worst = max(worst, abs(got_f1 - want_f1))
    report(
        2,
        "shared_threshold_search equals the exhaustive sweep on 500 random instances",
        worked_ok and worst <= 1e-12,
        f"worked example tau=0.6, max |dF1|={worst:.2e}",
    )


def test_criterion_3_metric_oracles():
    cm = confusion([0, 0, 1, 2], [0, 1, 1, 2])
    precision, recall, f1, balanced = macro_prf(cm)
    hand_ok = (
        abs(precision - (1.0 + 0.5 + 1.0) / 3) <= 1e-9
        and abs(recall - (0.5 + 1.0 + 1.0) / 3) <= 1e-9
        and abs(f1 - (2 / 3 + 2 / 3 + 1.0) / 3) <= 1e-9
        and balanced == recall
    )

    rng = np.random.default_rng(31337)
    worst_auc = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        scores = np.round(rng.random(n), 2).tolist()
        flags = rng.integers(0, 2, size=n).astype(bool)
        if flags.all() or not flags.any():
            flags[0] = ~flags[0]
        flags = flags.tolist()
        worst_auc = max(worst_auc, abs(binary_auc(scores, flags) - trapezoid_auc(scores, flags)))

    balanced_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 80))
        y_true = rng.integers(0, 3, size=n)
        y_pred = rng.integers(0, 3, size=n)
        _, r, _, b = macro_prf(confusion(y_true, y_pred))
        balanced_ok = balanced_ok and (b == r)

    report(
        3,
        "macro P/R/F1 match hand values; pair AUC = trapezoid AUC; balanced acc = macro recall",
        hand_ok and worst_auc <= 1e-9 and balanced_ok,
        f"max |dAUC|={worst_auc:.2e}",
    )


def test_criterion_4_split_invariants():
    corpus = flat_corpus({0: 1200, 1: 463, 2: 120})
    plan = stratified_split(corpus, 10, seed=7)
    per_fold = Counter()
    for key, fold in plan.assignment.items():
        if corpus.turn(key).label == 1:
            per_fold[fold] += 1
    counts = sorted(per_fold.values())
    exact_ok = counts == [46] * 7 + [47] * 3

    rng = np.random.default_rng(88)
    bound_ok = True
    for trial in range(30):
        totals = {
            0: int(rng.integers(20, 400)),
            1: int(rng.integers(6, 80)),
            2: int(rng.integers(6, 80)),
        }
        k = int(rng.integers(2, 11))
        if min(totals.values()) < k:
            continue
        rcorpus = flat_corpus(totals)
        rplan = stratified_split(rcorpus, k, seed=trial)
        fold_counts = [Counter() for _ in range(k)]
        for key, fold in rplan.assignment.items():
            fold_counts[fold][rcorpus.turn(key).label] += 1
        for fc in fold_counts:
            for label, total in totals.items():
                if abs(fc[label] - total / k) >= 1.0:
                    bound_ok = False
    report(
        4,
        "row-mode split: 463 positives over 10 folds gives {46,47}; |count - total/k| < 1",
        exact_ok and bound_ok,
        f"observed fold counts {counts}",
    )


def test_criterion_5_protocol_isolation(tmp_path):
    corpus, _ = generate_synthetic(100, 17)
    plan = stratified_split(corpus, 4, seed=17)
    spec = FeatureSpec(hash_dim=2 ** 11)
    config = TrainConfig(epochs=2, seed=17)
    base_models = SavedFoldModels(tmp_path / "base")
    base = run_cross_validation(corpus, plan, config, spec, save=base_models)

    test_keys = {key for key, fold in plan.assignment.items() if fold == plan.test_fold}
    perturbed_calls = []
    for call in corpus.calls:
        turns = tuple(
            PhraseTurn(
                call_id=t.call_id, turn_index=t.turn_index, channel=t.channel,
                start_ms=t.start_ms, end_ms=t.end_ms, text=t.text,
                label=(t.label + 1) % 3 if t.key in test_keys else t.label,
            )
            for t in call.turns
        )
        perturbed_calls.append(Call(call_id=call.call_id, turns=turns, holds=call.holds))
    perturbed_models = SavedFoldModels(tmp_path / "perturbed")
    perturbed = run_cross_validation(
        Corpus(calls=tuple(perturbed_calls)), plan, config, spec, save=perturbed_models
    )

    same_threshold = perturbed.shared_threshold == base.shared_threshold
    # The fold models, as the save hook received them in the processes that trained them.
    a, b = base_models.load(), perturbed_models.load()
    folds = [r.fold_index for r in base.folds]
    same_checkpoints = sorted(a) == sorted(b) == folds and all(
        np.array_equal(a[v].weights, b[v].weights)
        and np.array_equal(a[v].bias, b[v].bias)
        and a[v].epoch == b[v].epoch
        for v in folds
    )
    report(
        5,
        "perturbing test-fold labels changes no checkpoint and not the shared threshold",
        same_threshold and same_checkpoints,
    )


def test_criterion_6_end_to_end_quality(default_synthetic, tmp_path):
    corpus, _ = default_synthetic
    start = time.monotonic()
    cfg = RunConfig(seed=42)
    payload = run_pipeline(cfg, corpus, tmp_path / "pipeline")
    elapsed = time.monotonic() - start
    f1 = payload["mean_test_metrics"]["f1_macro"]
    report(
        6,
        "default synthetic corpus, k=10: mean test F1-macro >= 0.95 in under 2 minutes",
        f1 >= 0.95 and elapsed < 120.0,
        f"F1={f1:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_audit_oracle_equivalence(default_synthetic):
    corpus, ledger = default_synthetic
    preds = gold_predictions(corpus)
    reports, _ = audit_corpus(corpus, preds)
    equal = set(collect_violations(reports)) == set(ledger)

    small, _ = generate_synthetic(200, 3)
    small_preds = gold_predictions(small)
    rng = np.random.default_rng(55)
    monotone = True
    for _ in range(100):
        pre = int(rng.integers(0, 18_000))
        post = int(rng.integers(0, 18_000))
        grace = int(rng.integers(0, 3_000))
        narrow = AuditConfig(pre, post, grace)
        wide = AuditConfig(
            pre + int(rng.integers(0, 10_000)),
            post + int(rng.integers(0, 10_000)),
            grace + int(rng.integers(0, 2_000)),
        )
        _, narrow_counts = audit_corpus(small, small_preds, narrow)
        _, wide_counts = audit_corpus(small, small_preds, wide)
        if sum(wide_counts.values()) > sum(narrow_counts.values()):
            monotone = False
    report(
        7,
        "gold-label audit reproduces the generator ledger exactly; widening never adds violations",
        equal and monotone,
        f"ledger size {len(ledger)}",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    args = ["pipeline", "--synthetic-calls", "100", "--seed", "33", "--folds", "4",
            "--hash-dim", "2048", "--epochs", "2"]
    for out in ("first", "second"):
        try:
            run_cli(args + ["--out-dir", str(tmp_path / out)])
        except SystemExit as exc:
            assert exc.code in (0, None)
    a = tree_bytes(tmp_path / "first")
    b = tree_bytes(tmp_path / "second")
    f1 = json.loads(a["metrics.json"])["mean_test_metrics"]["f1_macro"]
    report(
        8,
        "two cmd_pipeline runs with identical config produce byte-identical artifacts",
        a == b and "metrics.json" in a and any(name.endswith(".npz") for name in a),
        f"{len(a)} files, {sum(map(len, a.values()))} bytes, F1={f1:.4f}",
    )


def test_criterion_9_gradient_check():
    spec = FeatureSpec(hash_dim=2 ** 10)
    feats = _featurize_many(["wait here", "back now", "hello"], spec)
    y = [1, 2, 0]
    cw = (0.25, 1.0, 3.0)
    rng = np.random.default_rng(12)
    w = rng.normal(size=(spec.hash_dim, 3)) * 0.4
    b = rng.normal(size=3) * 0.4
    _, grad_w, grad_b = weighted_ce_loss_and_grad(w, b, feats, y, cw)

    eps = 1e-5
    worst = 0.0
    touched = np.unique(feats.indices)
    for row in touched:
        for col in range(3):
            w[row, col] += eps
            up, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
            w[row, col] -= 2 * eps
            down, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
            w[row, col] += eps
            numeric = (up - down) / (2 * eps)
            worst = max(worst, abs(grad_w[row, col] - numeric) / max(abs(numeric), 1e-8))
    for col in range(3):
        b[col] += eps
        up, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
        b[col] -= 2 * eps
        down, _, _ = weighted_ce_loss_and_grad(w, b, feats, y, cw)
        b[col] += eps
        numeric = (up - down) / (2 * eps)
        worst = max(worst, abs(grad_b[col] - numeric) / max(abs(numeric), 1e-8))
    report(
        9,
        "analytic class-weighted cross-entropy gradient matches central differences",
        worst < 1e-6,
        f"max relative error {worst:.2e}",
    )
