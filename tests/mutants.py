"""Mutation table: which tier-1 tests kill each hand-written defect.

Run from anywhere, with no options:

    python tests/mutants.py

Each mutant is one exact text patch (name, file, old, new) of a file
under src/. For each, the script copies src/, tests/ and pyproject.toml
into a temporary directory, applies the patch there and runs the whole
tier-1 suite without -x, so every test that fails is listed. The
checkout is only read. It prints each mutant with its killing tests and
ends with a one-line-per-mutant summary.

Exit codes: 0 when every mutant is killed or is a survivor with a reason
in EXPLAINED; 1 when a survivor has no reason, or a run ends without a
test list (an INTERNALERROR, a timeout, or a pytest exit code other than
0 or 1). One run takes about as long as tier-1 itself, so the table
takes about 15 minutes on two CPUs.

tests/test_mutants.py checks that every patch still applies: its old
text occurs exactly once in its file and the patched file compiles.
It is left out of the mutant runs, where it fails on the patch by
construction.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CLASSIFIER = "src/holdscan/classifier.py"
TUNING = "src/holdscan/tuning.py"
IO = "src/holdscan/corpus/io.py"
CLI = "src/holdscan/cli.py"

MUTANTS = [
    ("gradient sign flipped", CLASSIFIER,
     "g[np.arange(n), y] -= 1.0", "g[np.arange(n), y] += 1.0"),
    ("bias never updated", CLASSIFIER,
     "bias -= lr * g.sum(axis=0)", "pass"),
    ("character n-grams dropped", CLASSIFIER,
     "keys.append((pos_keys[:m] | (crcs & low))[left[:m] >= n])", "pass"),
    ("grams at a text's end dropped", CLASSIFIER,
     "[left[:m] >= n]", "[left[:m] > n]"),
    ("CRC tag bytes off by one", CLASSIFIER,
     "zlib.crc32(bytes(k), seed)", "zlib.crc32(bytes(k + 1), seed)"),
    ("class weights ignored", CLASSIFIER,
     "g *= (class_weights[y] / n)[:, None]", "g /= n"),
    ("epoch shuffle is the identity", CLASSIFIER,
     "order = train_rows[rng.permutation(n)]", "order = train_rows[np.arange(n)]"),
    ("refold threshold 1e-300", CLASSIFIER,
     "if scale < 1e-100:", "if scale < 1e-300:"),
    ("buffered _scatter", CLASSIFIER,
     "np.add.at(out_t[c], feats.indices, terms[c])", "out_t[c, feats.indices] += terms[c]"),
    ("AUC-1.0 exit taken at 0.99", CLASSIFIER,
     "if best.validation_auc == 1.0:", "if best.validation_auc >= 0.99:"),
    ("block keys' row shift one bit short", CLASSIFIER,
     "row_keys = np.arange(len(texts), dtype=key) << key(bits)",
     "row_keys = np.arange(len(texts), dtype=key) << key(bits - 1)"),
    ("_remap sends unseen buckets to row 0", CLASSIFIER,
     "rank = np.full(hash_dim, len(columns), np.int32)", "rank = np.full(hash_dim, 0, np.int32)"),
    ("threshold chosen on the test fold", TUNING,
     "tune_and_test(list(zip(val_probs, val_labels)), test_probs, test_labels)",
     "tune_and_test([(p, test_labels) for p in test_probs], test_probs, test_labels)"),
    ("threshold ties go to the largest", TUNING,
     "float(winners.min())", "float(winners.max())"),
    (">= turned into > in decide_batch", "src/holdscan/decision.py",
     "arr[:, 1] + arr[:, 2] >= rule.threshold", "arr[:, 1] + arr[:, 2] > rule.threshold"),
    ("audit opening window short by grace_ms", "src/holdscan/compliance.py",
     "h.hold_start_ms + config.grace_ms)", "h.hold_start_ms)"),
    ("call-grouped split leaks one call across folds", "src/holdscan/corpus/split.py",
     "return call_fold[table.call_of_row]",
     "return np.where(np.arange(len(table)) == table.offsets[order[0] + 1] - 1, "
     "(call_fold[table.call_of_row] + 1) % k, call_fold[table.call_of_row])"),
    ("ingest's array check for a repeated turn_index dropped", IO,
     "repeated = same_call & (turn_index[1:] == turn_index[:-1])", "repeated = same_call & False"),
    ("a later rule overwrites an earlier rule's reason", IO,
     "            if row not in reasons:\n                reasons[row] = reason(row)\n",
     "            reasons[row] = reason(row)\n"),
    ("a '#' line is skipped inside a quoted record", IO,
     'if between and line.lstrip().startswith("#"):', 'if line.lstrip().startswith("#"):'),
    ("the record boundary is never reset", IO,
     "                rows.append(row)\n            between = True\n",
     "                rows.append(row)\n"),
    ("predictions-file renormalization skipped", CLASSIFIER,
     "probs[fix] /= total[fix, None]", "pass"),
    ("predictions writer leaves call ids unquoted", CLASSIFIER,
     "cells = map(first_cells(call_ids).__getitem__, call_ids)", "cells = iter(call_ids)"),
    ("key scorer counts every key once", CLASSIFIER,
     "terms *= counts.astype(np.float64)", "pass"),
    ("blocks run one at a time", CLASSIFIER,
     "n_threads = min(_usable_cpus(), len(blocks))", "n_threads = 1"),
    ("pool never shut down", CLASSIFIER,
     "    with ThreadPoolExecutor(n_threads, initializer=_take_cpu,\n"
     "                            initargs=(_cpu_queue(SimpleQueue(), n_threads),)) as pool:\n"
     "        return list(pool.map(work, blocks))\n",
     "    pool = ThreadPoolExecutor(n_threads, initializer=_take_cpu,\n"
     "                              initargs=(_cpu_queue(SimpleQueue(), n_threads),))\n"
     "    return list(pool.map(work, blocks))\n"),
    ("fold matrix expands every row", TUNING,
     "        feats=feats,\n        text_of=text_of,\n",
     "        feats=feats.take(text_of),\n        text_of=np.arange(len(text_of)),\n"),
    ("workers never spread", CLASSIFIER,
     "        os.sched_setaffinity(0, {cpu})\n", ""),
    ("affinity never restored", CLASSIFIER,
     "        os.sched_setaffinity(0, mask)\n", ""),
    ("collector never paused", CLI,
     "    gc.disable()\n", ""),
    ("collector left paused", CLI,
     "        if gc_was_enabled:\n            gc.enable()\n", "        pass\n"),
]

# Survivors, by mutant name, with why no test needs to kill them.
EXPLAINED: dict[str, str] = {}

# Tier-1, as ROADMAP.md runs it, listing every failed and errored test.
PYTEST = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 1800
_SUMMARY = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)")


def apply(text: str, old: str, new: str) -> str:
    """text with its one occurrence of old replaced by new."""
    if text.count(old) != 1:
        raise ValueError(f"{old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def run_mutant(file: str, old: str, new: str) -> tuple[int | None, list[str], str]:
    """(pytest's exit code, -1 after an INTERNALERROR or None on a timeout;
    the failed and errored test ids; the output's last lines) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="holdscan-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / file
        target.write_text(apply(target.read_text(encoding="utf-8"), old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        try:
            out = subprocess.run(PYTEST, cwd=work, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, [], f"timed out after {TIMEOUT_S} s"
    text = out.stdout + out.stderr
    killers = sorted({m.group(1) for line in text.splitlines() if (m := _SUMMARY.match(line))})
    tail = "\n".join(text.splitlines()[-5:])
    if "INTERNALERROR" in text:
        return -1, killers, tail
    return out.returncode, killers, tail


def main() -> int:
    bad = []
    summary = []
    for name, file, old, new in MUTANTS:
        code, killers, tail = run_mutant(file, old, new)
        if code == 1 and killers:
            verdict = f"killed by {len(killers)}"
        elif code == 0:
            verdict = "survived (explained)" if name in EXPLAINED else "SURVIVED"
            if name not in EXPLAINED:
                bad.append(name)
        else:
            verdict = f"RUN BROKEN (exit {code})"
            bad.append(name)
        print(f"== {name} [{file}]: {verdict}", flush=True)
        for test in killers:
            print(f"   {test}", flush=True)
        if code == 0 and name in EXPLAINED:
            print(f"   reason: {EXPLAINED[name]}", flush=True)
        if verdict.startswith("RUN BROKEN"):
            print("   " + tail.replace("\n", "\n   "), flush=True)
        summary.append(f"{name}: {verdict}")
    print("\nsummary")
    for line in summary:
        print(f"  {line}")
    if bad:
        print(f"\n{len(bad)} mutant(s) need a test or a reason: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
