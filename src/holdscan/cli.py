"""Command-line interface.

Subcommands: validate, stats, generate, split, train, predict,
tune-threshold, evaluate, sweep, audit, pipeline. Every command reads an
optional key=value config file; explicit flags override file values. All
output files embed the tool version and a hash of the parameter config,
and every command is deterministic given its config and seed.

Exit codes: 0 ok, 1 usage or IO problem, 2 data validation failure,
3 numeric or protocol failure.

Each command pauses the cyclic garbage collector, which library calls never
touch: the data are acyclic, and a scoring chain's ~200 collections freed none.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

import click
import numpy as np

from . import __version__
from .classifier import (
    KeyedProba,
    load_checkpoint,
    load_external_proba,
    predict_proba,
    save_checkpoint,
    select_best_checkpoint,
    write_proba,
)
from .compliance import HoldVerdict, audit_corpus, gold_predictions
from .config import RunConfig, config_hash, load_run_config, with_overrides
from .corpus import (
    Corpus,
    FoldPlan,
    TurnKey,
    attach_holds,
    check_transcripts,
    corpus_stats,
    fold_plan_payload,
    generate_synthetic,
    ingest_holds,
    ingest_transcripts,
    load_fold_plan,
    load_profile,
    stratified_split,
    write_holds,
    write_transcripts,
)
from .corpus.io import write_csv
from .corpus.synthetic import DEFAULT_PROFILE
from .decision import DecisionRule, decide_batch
from .errors import DataValidationError, FoldTooSmall, HoldscanError, MissingPredictions
from .metrics import MetricBundle
from .tuning import (
    DEFAULT_CLASS_WEIGHT_GRID,
    DEFAULT_LEARNING_RATE_GRID,
    SWEEP_AXES,
    fold_matrix,
    run_cross_validation,
    score_at,
    shared_threshold_search,
    sweep as run_sweep,
    train_fold,
    tune_and_test,
)

# Results-table header -> MetricBundle field.
TABLE_COLUMNS = {
    "ROC AUC": "roc_auc_macro_ovr",
    "Best threshold": "threshold_used",
    "Recall": "recall_macro",
    "Precision": "precision_macro",
    "Balanced Accuracy": "balanced_accuracy",
    "F1": "f1_macro",
}


# --- shared helpers --------------------------------------------------------


def _merged(config_file: str | None, **flags) -> RunConfig:
    base = load_run_config(config_file) if config_file else RunConfig()
    return with_overrides(base, **flags)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise click.UsageError("a --seed (or config 'seed') is required for this command")
    return cfg.seed


def _stamp(cfg: RunConfig) -> str:
    return f"holdscan {__version__} config={config_hash(cfg)}"


def _stamp_meta(cfg: RunConfig) -> dict:
    return {"tool_version": __version__, "config_hash": config_hash(cfg)}


def _write_json(path: Path, payload: dict, cfg: RunConfig, indent: int | None = 2) -> None:
    """payload with the stamp, keys sorted; a fold plan is written with
    indent=None, a third of the bytes, by json's C encoder."""
    payload = {**_stamp_meta(cfg), **payload}
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n", encoding="utf-8")


def _format_table(value_header: str, rows: list[tuple[str, MetricBundle]]) -> str:
    header = [value_header, *TABLE_COLUMNS]
    body = [[label, *(f"{getattr(b, name):.4f}" for name in TABLE_COLUMNS.values())]
            for label, b in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _plan_for(cfg: RunConfig, corpus: Corpus, fold_plan_path: str | None = None) -> FoldPlan:
    if fold_plan_path:
        plan = load_fold_plan(fold_plan_path)
        plan.validate_against(corpus)
        return plan
    return stratified_split(corpus, cfg.folds, _require_seed(cfg), cfg.split_mode, cfg.test_fold)


def _lookup(proba: KeyedProba, keys: Iterable[TurnKey]) -> np.ndarray:
    """The (n, 3) probabilities of keys, in order; MissingPredictions names the first gap."""
    try:
        return proba.rows(keys)
    except KeyError as exc:
        raise MissingPredictions(exc.args[0][0]) from None


def _proba_folds(
    corpus: Corpus, plan: FoldPlan, proba: KeyedProba
) -> tuple[list[tuple[np.ndarray, np.ndarray]], tuple[np.ndarray, np.ndarray]]:
    """The (probabilities, labels) of the validation folds, and of the test fold."""
    if plan.k < 2:
        raise FoldTooSmall(f"k={plan.k}: need a validation fold besides the test fold")
    keys, labels = corpus.table.keys, corpus.table.label
    by_fold = [
        (_lookup(proba, map(keys.__getitem__, rows.tolist())), labels[rows])
        for rows in plan.fold_rows(corpus)
    ]
    test = by_fold.pop(plan.test_fold)
    return by_fold, test


# --- command group ----------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="holdscan")
def cli():
    """Detect on-hold scripts in call transcripts and audit hold compliance."""


_config_opt = click.option("--config", "config_file", type=click.Path(exists=True), default=None,
                           help="key=value config file; flags override it")

# Every command that builds a fold plan takes these.
_split_opts = [
    click.option("--folds", type=int, default=None),
    click.option("--test-fold", type=int, default=None),
    click.option("--split-mode", type=click.Choice(["row", "call_grouped"]), default=None),
    click.option("--seed", type=int, default=None),
]

_train_opts = [
    click.option("--epochs", type=int, default=None),
    click.option("--batch-size", type=int, default=None),
    click.option("--learning-rate", type=float, default=None),
    click.option("--weight-decay", type=float, default=None),
    click.option("--class-weights", type=str, default=None, help="w0,w1,w2"),
    click.option("--hash-dim", type=int, default=None),
    click.option("--max-tokens", type=int, default=None),
]


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@cli.command()
@click.argument("transcripts", type=click.Path(exists=True))
def validate(transcripts):
    """Check a transcript CSV; exit 0 only when it ingests cleanly."""
    corpus, diagnostics = check_transcripts(transcripts)
    if diagnostics:
        for diag in diagnostics:
            click.echo(str(diag))
        click.echo(f"{len(diagnostics)} invalid row(s)")
        sys.exit(2)
    counts = corpus.label_counts()
    unlabeled = corpus.n_turns() - sum(counts.values())
    click.echo(f"calls: {len(corpus.table.call_ids)}")
    click.echo(f"turns: {corpus.n_turns()}")
    click.echo(
        "rows per class: irrelevant={0} opening={1} closing={2} unlabeled={3}".format(
            counts[0], counts[1], counts[2], unlabeled
        )
    )


@cli.command()
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), required=True)
def stats(config_file, transcripts, out_dir):
    """Emit histogram CSVs (rows per call, words per row, script counts)."""
    cfg = _merged(config_file)
    corpus = ingest_transcripts(transcripts)
    st = corpus_stats(corpus)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(cfg)

    write_csv(out / "rows_per_call.csv", ("rows", "calls"),
              sorted(st.rows_per_call.items()), stamp)
    write_csv(out / "words_per_row.csv", ("label", "words", "rows"),
              ((label, words, n) for label in (0, 1, 2)
               for words, n in sorted(st.words_per_row[label].items())), stamp)
    max_open = max((o for o, _ in st.script_matrix), default=0)
    max_close = max((c for _, c in st.script_matrix), default=0)
    write_csv(out / "script_count_matrix.csv",
              ("openings", *(f"closings_{c}" for c in range(max_close + 1))),
              ([o, *(st.script_matrix.get((o, c), 0) for c in range(max_close + 1))]
               for o in range(max_open + 1)), stamp)

    click.echo(f"calls: {st.n_calls}  turns: {st.n_turns}")
    click.echo(
        "rows per class: irrelevant={0} opening={1} closing={2}".format(
            st.label_counts[0], st.label_counts[1], st.label_counts[2]
        )
    )
    click.echo(f"wrote plot data to {out}")


@cli.command()
@_config_opt
@click.option("--calls", type=int, default=None, help="number of calls to generate")
@click.option("--seed", type=int, default=None)
@click.option("--profile", "profile_file", type=click.Path(exists=True), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
def generate(config_file, profile_file, out_dir, **flags):
    """Generate a synthetic labeled corpus with holds and a violation ledger."""
    cfg = _merged(config_file, **flags)
    seed = _require_seed(cfg)
    profile = load_profile(profile_file) if profile_file else DEFAULT_PROFILE
    corpus, ledger = generate_synthetic(cfg.calls, seed, profile)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(cfg)
    write_transcripts(corpus, out / "transcripts.csv", header_comment=stamp)
    write_holds(corpus, out / "holds.csv", header_comment=stamp)
    _write_json(out / "violations.json", {"violations": [v.as_dict() for v in ledger]}, cfg)
    counts = corpus.label_counts()
    click.echo(
        f"generated {len(corpus.table.call_ids)} calls, {corpus.n_turns()} turns "
        f"(opening={counts[1]}, closing={counts[2]}), {len(ledger)} ground-truth violations"
    )
    click.echo(f"wrote corpus to {out}")


@cli.command()
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@_add_options(_split_opts)
@click.option("--out", "out_file", type=click.Path(), required=True)
def split(config_file, transcripts, out_file, **flags):
    """Write a stratified fold plan for a labeled transcript file."""
    cfg = _merged(config_file, **flags)
    corpus = ingest_transcripts(transcripts)
    plan = _plan_for(cfg, corpus)
    _write_json(Path(out_file), fold_plan_payload(plan), cfg, indent=None)
    click.echo(f"assigned {len(plan.assignment)} turns to {plan.k} folds (test fold {plan.test_fold})")


@cli.command(name="train")
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@_add_options(_split_opts)
@click.option("--val-fold", type=int, required=True, help="fold held out for checkpoint selection")
@_add_options(_train_opts)
@click.option("--model-out", type=click.Path(), required=True)
def train_cmd(config_file, transcripts, val_fold, model_out, **flags):
    """Train one model on all folds except the validation and test folds."""
    cfg = _merged(config_file, **flags)
    corpus = ingest_transcripts(transcripts)
    plan = _plan_for(cfg, corpus)
    if not 0 <= val_fold < plan.k or val_fold == plan.test_fold:
        raise click.UsageError(f"--val-fold must be a non-test fold in [0, {plan.k})")
    matrix = fold_matrix(corpus, plan, cfg.feature_spec())
    checkpoints = list(train_fold(matrix, val_fold, cfg.train_config()))
    for ckpt in checkpoints:
        click.echo(f"epoch {ckpt.epoch}: validation ROC AUC {ckpt.validation_auc:.4f}")
    best = select_best_checkpoint(checkpoints)
    save_checkpoint(model_out, best, extra_meta=_stamp_meta(cfg))
    click.echo(f"saved epoch-{best.epoch} checkpoint to {model_out}")


@cli.command()
@_config_opt
@click.option("--model", "model_file", type=click.Path(exists=True), required=True)
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@click.option("--out", "out_file", type=click.Path(), required=True)
def predict(config_file, model_file, transcripts, out_file):
    """Score every turn with a saved model; write a predictions CSV."""
    cfg = _merged(config_file)
    corpus = ingest_transcripts(transcripts)
    model = load_checkpoint(model_file)
    table = corpus.table
    probs = predict_proba(model, table.text, model.feature_spec).probs
    write_proba(out_file, table.keys, probs, header_comment=_stamp(cfg))
    click.echo(f"wrote {len(table)} predictions to {out_file}")


@cli.command(name="tune-threshold")
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@click.option("--proba", "proba_file", type=click.Path(exists=True), required=True)
@click.option("--fold-plan", "fold_plan_file", type=click.Path(exists=True), default=None)
@_add_options(_split_opts)
@click.option("--out", "out_file", type=click.Path(), default=None)
def tune_threshold(config_file, transcripts, proba_file, fold_plan_file, out_file, **flags):
    """Choose the shared threshold over the non-test folds of a predictions file."""
    cfg = _merged(config_file, **flags)
    corpus = ingest_transcripts(transcripts)
    plan = _plan_for(cfg, corpus, fold_plan_file)
    val_folds, _ = _proba_folds(corpus, plan, load_external_proba(proba_file))
    threshold, mean_f1 = shared_threshold_search(val_folds)
    click.echo(f"shared threshold: {threshold!r}")
    click.echo(f"mean validation F1-macro: {mean_f1:.4f}")
    if out_file:
        _write_json(Path(out_file), {"shared_threshold": threshold, "mean_f1_macro": mean_f1}, cfg)


@cli.command()
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@click.option("--proba", "proba_file", type=click.Path(exists=True), required=True)
@click.option("--threshold", type=float, required=True)
@click.option("--fold-plan", "fold_plan_file", type=click.Path(exists=True), default=None)
@click.option("--fold", type=int, default=None, help="evaluate only this fold of the plan")
@_add_options(_split_opts)
@click.option("--out", "out_file", type=click.Path(), default=None)
def evaluate(config_file, transcripts, proba_file, threshold, fold_plan_file, fold, out_file,
             **flags):
    """Compute the metric row for a predictions file at a fixed threshold."""
    cfg = _merged(config_file, threshold=threshold, **flags)
    corpus = ingest_transcripts(transcripts)
    proba = load_external_proba(proba_file)
    table = corpus.table
    if fold is not None:
        plan = _plan_for(cfg, corpus, fold_plan_file)
        if not 0 <= fold < plan.k:
            raise click.UsageError(f"--fold must be in [0, {plan.k})")
        rows = plan.fold_rows(corpus)[fold]
    else:
        rows = table.key_order[table.label[table.key_order] >= 0]  # labeled, in key order
    labels = table.label[rows]
    bundle = score_at(_lookup(proba, map(table.keys.__getitem__, rows.tolist())), labels,
                      threshold)
    for name, value in bundle.as_dict().items():
        click.echo(f"{name}: {value:.6f}")
    if out_file:
        _write_json(Path(out_file), {"metrics": bundle.as_dict(), "n_examples": len(labels)}, cfg)


@cli.command()
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), default=None)
@click.option("--synthetic-calls", type=int, default=None, help="generate the corpus instead of reading one")
@click.option("--axis", type=click.Choice(SWEEP_AXES), required=True)
@click.option("--values", type=str, default=None,
              help="grid values; ';'-separated (class weight triples use commas inside)")
@_add_options(_split_opts)
@_add_options(_train_opts)
@click.option("--out-dir", type=click.Path(), required=True)
def sweep(config_file, transcripts, synthetic_calls, axis, values, out_dir, **flags):
    """Run one cross-validation per grid value and tabulate the results."""
    cfg = _merged(config_file, calls=synthetic_calls, **flags)
    corpus = _pipeline_corpus(cfg, transcripts, synthetic_calls is not None)
    if values:
        if axis == "class_weights":
            grid = [tuple(float(x) for x in chunk.split(",")) for chunk in values.split(";") if chunk]
        else:
            grid = [float(chunk) for chunk in values.replace(";", ",").split(",") if chunk]
    else:
        grid = list(DEFAULT_CLASS_WEIGHT_GRID if axis == "class_weights" else DEFAULT_LEARNING_RATE_GRID)
    plan = _plan_for(cfg, corpus)
    result = run_sweep(corpus, plan, cfg.train_config(), axis, grid, cfg.feature_spec())

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(str(v), b) for v, b in result.rows()]
    table = _format_table(axis, rows)
    (out / "sweep_table.txt").write_text(f"# {_stamp(cfg)}\n{table}", encoding="utf-8")
    # json writes the class-weight tuples as arrays.
    _write_json(
        out / "sweep.json",
        {
            "axis": axis,
            "rows": [{"value": v, "validation_mean_f1": f1, "metrics": b.as_dict()}
                     for (v, b), f1 in zip(result.rows(), result.validation_mean_f1)],
            "best_index": result.best_index,
            "best_value": result.values[result.best_index],
        },
        cfg,
    )
    click.echo(table.rstrip("\n"))
    click.echo(f"best {axis}: {result.values[result.best_index]} "
               f"(validation F1-macro {result.validation_mean_f1[result.best_index]:.4f})")


@cli.command()
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@click.option("--holds", "holds_file", type=click.Path(exists=True), required=True)
@click.option("--proba", "proba_file", type=click.Path(exists=True), default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--gold", is_flag=True, help="audit gold labels instead of predictions")
@click.option("--pre-window-ms", type=int, default=None)
@click.option("--post-window-ms", type=int, default=None)
@click.option("--grace-ms", type=int, default=None)
@click.option("--out", "out_file", type=click.Path(), default=None)
def audit(config_file, transcripts, holds_file, proba_file, gold, out_file, **flags):
    """Audit detected scripts against registered holds, call by call."""
    cfg = _merged(config_file, **flags)
    if gold and proba_file:
        raise click.UsageError("--gold audits the gold labels: give --gold or --proba")
    if not gold and (not proba_file or cfg.threshold is None):
        raise click.UsageError("need --proba and --threshold, or --gold")
    corpus = attach_holds(ingest_transcripts(transcripts), ingest_holds(holds_file))
    if gold:
        predictions = gold_predictions(corpus)  # any threshold is ignored
    else:
        keys = corpus.table.keys
        probs = _lookup(load_external_proba(proba_file), keys)
        predictions = dict(zip(keys, decide_batch(probs, DecisionRule(cfg.threshold))))

    reports, summary = audit_corpus(corpus, predictions, cfg.audit_config())
    for report in reports:
        for v in report.verdicts:
            opening = f"opening ok (turn {v.opening_turn_index})" if v.opening_ok else "opening MISSING"
            closing = f"closing ok (turn {v.closing_turn_index})" if v.closing_ok else "closing MISSING"
            click.echo(
                f"{report.call_id}: hold {v.hold.hold_start_ms}-{v.hold.hold_end_ms} ms: "
                f"{opening}, {closing}"
            )
        for turn_index, label in report.unregistered:
            kind = "opening" if label == 1 else "closing"
            click.echo(f"{report.call_id}: turn {turn_index}: unregistered {kind} script")
    click.echo(
        "summary: missing_opening={missing_opening} missing_closing={missing_closing} "
        "unregistered_hold={unregistered_hold}".format(**summary)
    )
    if out_file:
        calls = [
            {
                "call_id": r.call_id,
                "holds": [_verdict_json(v) for v in r.verdicts],
                "unregistered": [
                    {"turn_index": idx, "predicted_class": label} for idx, label in r.unregistered
                ],
            }
            for r in reports
        ]
        _write_json(Path(out_file), {"summary": summary, "calls": calls}, cfg)


def _verdict_json(verdict: HoldVerdict) -> dict:
    """A verdict's fields with the hold's bounds flattened into it."""
    row = asdict(verdict)
    row.update(row.pop("hold"))
    return row


def _pipeline_corpus(cfg: RunConfig, transcripts: str | None, synthetic: bool) -> Corpus:
    if synthetic == (transcripts is not None):
        raise click.UsageError("provide exactly one of --transcripts or --synthetic-calls")
    if synthetic:
        corpus, _ = generate_synthetic(cfg.calls, _require_seed(cfg), DEFAULT_PROFILE)
        return corpus
    return ingest_transcripts(transcripts)


@cli.command()
@_config_opt
@click.option("--transcripts", type=click.Path(exists=True), default=None)
@click.option("--synthetic-calls", type=int, default=None)
@click.option("--external-proba", "external_proba_file", type=click.Path(exists=True), default=None,
              help="skip training and tune/evaluate these probabilities")
@_add_options(_split_opts)
@_add_options(_train_opts)
@click.option("--out-dir", type=click.Path(), required=True)
def pipeline(config_file, transcripts, synthetic_calls, external_proba_file, out_dir, **flags):
    """Split, cross-validate, pick the shared threshold and evaluate the test fold."""
    cfg = _merged(config_file, calls=synthetic_calls, **flags)
    corpus = _pipeline_corpus(cfg, transcripts, synthetic_calls is not None)
    summary = run_pipeline(cfg, corpus, Path(out_dir),
                           external_proba_file=external_proba_file)
    click.echo(f"shared threshold: {summary['shared_threshold']!r}")
    click.echo(f"mean test F1-macro: {summary['mean_test_metrics']['f1_macro']:.4f}")
    click.echo(f"artifacts in {out_dir}")


def run_pipeline(
    cfg: RunConfig,
    corpus: Corpus,
    out_dir: Path,
    external_proba_file: str | None = None,
) -> dict:
    """Programmatic pipeline entry; returns the metrics payload it writes.

    Every artifact is written into a staging directory inside out_dir and
    renamed into place once the run has its results; models/ is replaced
    whole, and an external run leaves none. A run that fails leaves out_dir
    as it was, and removes the directories it created for it. Files the
    pipeline does not write are never touched.
    """
    out_dir = Path(out_dir)
    plan = _plan_for(cfg, corpus)
    # A trained run's bad config values are refused before any mkdir.
    trained = None if external_proba_file else (cfg.train_config(), cfg.feature_spec())
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=out_dir, prefix=".run-"))  # in out_dir: publishing is renames
    try:
        if external_proba_file:
            val_folds, (test_probs, test_labels) = _proba_folds(
                corpus, plan, load_external_proba(external_proba_file))
            run = tune_and_test(val_folds, [test_probs], test_labels)
            mode, table_label, published = "external", "external", []
        else:
            run = run_cross_validation(corpus, plan, *trained)
            (stage / "models").mkdir()
            for v, model in run.models.items():
                save_checkpoint(stage / "models" / f"fold_{v}.npz", model,
                                extra_meta=_stamp_meta(cfg))
            mode, table_label, published = "trained", "mean of folds", ["models"]

        payload = {
            "mode": mode,
            "k": plan.k,
            "test_fold": plan.test_fold,
            "shared_threshold": run.shared_threshold,
            "validation_mean_f1": run.shared_threshold_mean_f1,
            "per_fold_test_metrics": [b.as_dict() for b in run.test_bundles],
            "mean_test_metrics": run.mean_test_bundle.as_dict(),
        }
        if run.models:
            payload["per_fold_validation_auc"] = {
                str(v): model.validation_auc for v, model in run.models.items()
            }
        _write_json(stage / "fold_plan.json", fold_plan_payload(plan), cfg, indent=None)
        _write_json(stage / "shared_threshold.json",
                    {"shared_threshold": run.shared_threshold,
                     "mean_f1_macro": run.shared_threshold_mean_f1}, cfg)
        _write_json(stage / "metrics.json", payload, cfg)
        (stage / "results_table.txt").write_text(
            f"# {_stamp(cfg)}\n{_format_table('Run', [(table_label, run.mean_test_bundle)])}",
            encoding="utf-8",
        )
        if os.path.lexists(out_dir / "models"):  # an earlier run's; removed with the stage
            os.replace(out_dir / "models", stage / "earlier-models")
        for name in published + ["fold_plan.json", "shared_threshold.json", "metrics.json",
                                 "results_table.txt"]:
            os.replace(stage / name, out_dir / name)
        return payload
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        for made in created:  # empty only when the run failed
            try:
                made.rmdir()
            except OSError:
                break


def run_cli(argv: list[str] | None = None) -> None:
    """Entry point with the documented exit-code mapping."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        cli.main(args=argv, prog_name="holdscan", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(1)
    except (DataValidationError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except HoldscanError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    run_cli()
