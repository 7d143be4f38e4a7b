"""One timed command chain in a fresh process.

`run.py` starts this script once per measured iteration with the path of a
JSON job file: the source directory to import holdscan from, the chain of
`holdscan` command lines, whether to trace, and where to write the result.
The chain runs in-process through `holdscan.cli.run_cli`, the entry point
of the `holdscan` console script, one command after the other.

The result records the import time of holdscan (the program's set-up), the
wall time of the chain, each command's exit code, the peak resident memory
of this process, and the time of a fixed unit of reference work measured
after the import and after the chain. With tracing on it also records the
per-layer summary and writes the spans next to the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

THRESHOLD_SLOT = "{shared_threshold}"
REFERENCE_ROUNDS = 700


def _fill(argv: list[str], out_dir: Path) -> list[str]:
    """Substitute the shared threshold the previous `pipeline` wrote."""
    if THRESHOLD_SLOT not in argv:
        return argv
    data = json.loads((out_dir / "shared_threshold.json").read_text(encoding="utf-8"))
    return [repr(float(data["shared_threshold"])) if a == THRESHOLD_SLOT else a for a in argv]


def _run(run_cli, argv: list[str]) -> int:
    try:
        run_cli(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, reported with its traceback
        traceback.print_exc()
        return -1
    return 0


def reference_s() -> float:
    """Seconds this process takes for a fixed unit of reference work.

    The work imitates holdscan's hot paths without calling holdscan, in equal
    shares of time: crc32 hashing of character 4-grams into a dict, as in
    featurize, and small numpy gathers and scatters on a training-sized
    matrix, as in the training loop. The host's speed drifts by tens of
    percent over minutes, so run.py scales times by this figure.
    """
    import zlib

    import numpy as np

    dim = 2 ** 18  # the default hash_dim: a 6 MB weight matrix, as in training
    text = "please hold the line while I check the invoice for account 4 2 7 1 " * 2
    weights = np.zeros((dim, 3))
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        counts: dict[int, int] = {}
        for i in range(len(text) - 3):
            bucket = zlib.crc32(text[i:i + 4].encode()) % dim
            counts[bucket] = counts.get(bucket, 0) + 1
        idx = np.fromiter(counts, dtype=np.int64, count=len(counts))
        cnt = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        for _ in range(3):  # about as long as the hashing above
            weights[idx] -= 1e-3 * cnt[:, None] * (cnt @ weights[idx])
        text = text[1:] + text[0]  # new 4-grams, new rows next round
    return time.perf_counter() - t0


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import holdscan.cli  # noqa: E402  (the import is what set-up time measures)
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s, "holdscan_file": holdscan.cli.__file__,
                    "reference_s": [reference_s()]}
    if job.get("import_only"):
        Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
        return

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_dir = Path(job["out_dir"])
    run_cli = holdscan.cli.run_cli
    codes: list[int] = []
    start = time.perf_counter()
    for argv in job["commands"]:
        try:
            argv = _fill(argv, out_dir)
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
            codes.append(-1)
            break
        if tracer is None:
            code = _run(run_cli, argv)
        else:
            code = tracer.span("cli", _run, (run_cli, argv))
        codes.append(code)
        if code != 0:
            break
    wall_s = time.perf_counter() - start
    result.update(
        wall_s=wall_s,
        exit_codes=codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result["reference_s"].append(reference_s())
    if tracer is not None:
        tracer.finish()
        result["trace"] = tracer.summary()
        tracer.dump(Path(job["result"]).with_suffix(".spans.jsonl"))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
