"""holdscan benchmark: one command per workload, checked outputs.

    python3 bench/run.py --workload cv_templated --seed 1 --seconds 50 --trace 0

Run from anywhere inside a source checkout; holdscan is imported from the
checkout's `src/` directory. A run

1. makes the workload's inputs from --seed and records their sha256 digests
   (untimed; `score_audit` also trains its fixture model here);
2. measures holdscan's import time in a few fresh processes (`setup_s`);
3. for --seconds, runs the workload's `holdscan` command chain again and
   again, each time in a fresh process: one client in a closed loop, so a
   chain starts when the previous one has finished;
4. checks the outputs: every command exits 0, the shared threshold is a
   validation p1+p2 sum or the reject-all sentinel, predictions reload,
   every artifact is byte-identical across iterations, and an audit of the
   gold labels reproduces the generator's violation ledger;
5. prints a report and, as its last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

This host's speed drifts by tens of percent within minutes, so every worker
also times a fixed unit of reference work (worker.reference_s), and the
end-to-end times are reported at a reference speed: multiplied by
REFERENCE_NOMINAL_S / (the run's median reference time). The report prints
the raw times and the reference samples next to them.

With --trace 1, untraced and traced iterations alternate. Per-layer numbers
come from the traced ones and are not scaled (`trace.reference_s` gives the
run's reference time); `trace.overhead_s` is the traced median wall time
minus the untraced median. A per-layer metric whose function is missing or
never called reads -1 and the report names it with the reason.

Exits 1 after the result line when a check fails, and 2 without a result
line when holdscan's sources are not in the checkout or an argument is bad.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"   # inputs and artifacts of the current run, removed at its end
TRACES = ROOT / ".bench_out"  # spans of the last traced iteration, kept

IMPORT_PROBES = 5
# End-to-end times are scaled to a host on which worker.reference_s takes this long.
REFERENCE_NOMINAL_S = 0.1
RUN_LIMIT_S = 170  # a worker still running this long after the run began is killed
ABSENT = -1.0
_RUN_START = time.perf_counter()


def _worker(job: dict, directory: Path, tag: str) -> dict:
    """Run worker.py on a job; return its result, or {"error": ...}."""
    timeout = max(1.0, _RUN_START + RUN_LIMIT_S - time.perf_counter())
    job_path = directory / f"{tag}.job.json"
    result_path = directory / f"{tag}.result.json"
    log_path = directory / f"{tag}.log"
    job_path.write_text(json.dumps({"src": str(SRC), "result": str(result_path), **job}),
                        encoding="utf-8")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                                  stdout=log, stderr=subprocess.STDOUT, cwd=directory,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{tag}: worker killed after {timeout:.0f} s"}
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
    if proc.returncode != 0 or not result or any(c != 0 for c in result.get("exit_codes", [])):
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-1500:]
        result["error"] = f"{tag}: worker exit {proc.returncode}, " \
                          f"command exits {result.get('exit_codes')}; log tail:\n{tail}"
    elif not result["holdscan_file"].startswith(str(SRC)):
        result["error"] = f"{tag}: imported holdscan from {result['holdscan_file']}, not {SRC}"
    return result


def _layer_metrics(summaries: list[dict], overhead_s: float, reference_s: float,
                   quality: dict, per_layer: list[dict]) -> tuple[dict, dict[str, str]]:
    """Median over traced iterations of each per-layer metric, or ABSENT and why."""

    def lookup(summary: dict, metric: str):
        if metric == "trace.overhead_s":
            return overhead_s, None
        if metric == "trace.reference_s":
            return reference_s, None
        if metric == "compliance.violation_f1":
            if "violation_f1" in quality:
                return quality["violation_f1"], None
            return None, "this workload runs no audit of predictions"
        if metric == "cli.artifact_bytes":
            return summary["artifact_bytes"], None
        layer, _, field = metric.rpartition(".")
        if layer in summary["missing"]:
            return None, summary["missing"][layer]
        entry = summary["layers"].get(layer, {})
        if not entry.get("calls"):
            return None, f"{layer} was never called on this workload"
        if field in entry["counts"]:
            return entry["counts"][field], None
        if field in ("s", "self_s", "calls"):
            return entry[field], None
        if field == "distinct_ratio" and "distinct" in entry["counts"]:
            return entry["counts"]["distinct"] / entry["calls"], None
        return None, entry.get("count_error") or f"{layer} recorded no '{field}' count"

    metrics, absent = {}, {}
    for m in per_layer:
        values = []
        for summary in summaries:
            value, reason = lookup(summary, m["name"])
            if reason:
                absent[m["name"]] = reason
                break
            values.append(value)
        value = ABSENT if m["name"] in absent else statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, absent


def measure(wl, workload, seed: int, seconds: float, trace: bool, spec: dict, work: Path) -> dict:
    """Set up, run the closed loop, check, and return the result object."""
    failures: list[str] = []
    t0 = time.perf_counter()
    inputs = wl.prepare(workload, seed, work)
    failures += wl.check_gold_audit(inputs)
    n_turns = inputs.corpus.n_turns()
    print(f"workload {workload.name} seed {seed}: {len(inputs.corpus.calls)} calls, {n_turns} "
          f"turns, {len({t.text for t in inputs.corpus.iter_turns()})} distinct texts, "
          f"{len(inputs.ledger)} ledger violations; inputs made in "
          f"{time.perf_counter() - t0:.1f} s")
    for name, digest in inputs.digests.items():
        print(f"input {name} sha256 {digest}")

    setup_times, reference = [], []
    for i in range(IMPORT_PROBES):
        res = _worker({"import_only": True}, work, f"import{i}")
        if "error" in res:
            failures.append(res["error"])
        else:
            setup_times.append(res["setup_s"])
            reference += res["reference_s"]

    attempted = failed = 0
    walls: dict[bool, list[float]] = {False: [], True: []}
    rss: list[float] = []
    summaries: list[dict] = []
    first_digests = quality = None
    # At least two iterations, so determinism is always checked; after that,
    # start another while it would end, at the last one's pace, no more than
    # half an iteration past the deadline.
    deadline = time.perf_counter() + seconds
    last = 0.0
    i = 0
    while not failures and (i < 2 or time.perf_counter() + last / 2 < deadline):
        started = time.perf_counter()
        traced = trace and i % 2 == 1
        out = work / f"out{i}"
        out.mkdir()
        chain = wl.commands(workload, inputs, seed, out)
        res = _worker({"commands": chain, "trace": traced, "out_dir": str(out)}, work, f"iter{i}")
        codes = res.get("exit_codes") or [-1]  # a chain stops at its first failed command
        attempted += len(codes)
        failed += sum(1 for c in codes if c != 0)
        if "error" in res:
            failures.append(res["error"])
            break
        setup_times.append(res["setup_s"])
        reference += res["reference_s"]
        walls[traced].append(res["wall_s"])
        digests = wl.tree_digests(out)
        if first_digests is None:
            first_digests = digests
            try:
                problems, quality = wl.check_outputs(workload, inputs, out)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"checking the artifacts raised {type(exc).__name__}: {exc}"]
            failures += problems
        elif digests != first_digests:
            changed = sorted(k for k in digests.keys() | first_digests.keys()
                             if digests.get(k) != first_digests.get(k))
            failures.append(f"iteration {i}: artifacts differ from iteration 0: {changed}")
        if traced:
            res["trace"]["artifact_bytes"] = sum((out / k).stat().st_size for k in digests)
            summaries.append(res["trace"])
            spans = work / f"iter{i}.result.spans.jsonl"
            if spans.exists():
                TRACES.mkdir(exist_ok=True)
                shutil.copy(spans, TRACES / f"{workload.name}-s{seed}.spans.jsonl")
        else:
            rss.append(res["peak_rss_mb"])
        shutil.rmtree(out)
        last = time.perf_counter() - started
        i += 1

    for problem in failures:
        print(f"CHECK FAILED: {problem}")
    print(f"commands attempted {attempted}, failed {failed}")
    if failures or not walls[False]:
        return {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}

    wall = statistics.median(walls[False])
    setup = statistics.median(setup_times)
    scale = REFERENCE_NOMINAL_S / statistics.median(reference)
    print(f"raw wall median {wall:.4f} s over {len(walls[False])} untraced iterations (too few "
          f"for a percentile above the median): {' '.join(f'{w:.3f}' for w in walls[False])}")
    print(f"raw setup median {setup:.4f} s over {len(setup_times)} imports: "
          f"{' '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"reference median {statistics.median(reference):.4f} s over {len(reference)} "
          f"samples (scale {scale:.4f}): {' '.join(f'{r:.3f}' for r in reference)}")
    print("quality " + json.dumps(quality, sort_keys=True))
    if trace:
        overhead = statistics.median(walls[True]) - wall
        metrics, absent = _layer_metrics(summaries, overhead, statistics.median(reference),
                                        quality, spec["per_layer"])
        for name, reason in sorted(absent.items()):
            print(f"absent {name}: {reason}")
    else:
        e2e = {
            "setup_s": setup * scale,
            "wall_ref_s": wall * scale,
            "turns_per_ref_s": n_turns / (wall * scale),
            "peak_rss_mb": statistics.median(rss),
            "val_f1_macro": quality["val_f1_macro"],
        }
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    # Raising inside subprocess.run kills the running worker before the
    # exception propagates, and main's finally removes the work directory.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "holdscan" / "__init__.py").is_file():
        print(f"holdscan sources not found under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(wl, wl.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
