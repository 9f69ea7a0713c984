"""End-to-end benchmark of TransN: fit, evaluate and serve, per workload.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload fit-sgns --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds a traced repetition and reports the per-layer split
instead (spans are written to ``--trace-out``).  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
check makes ``correct`` false and the exit code 1.

Compare two result sets written with ``--out``::

    python3 perfbench/run.py --compare before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _import_program() -> None:
    """Put ``src/`` first on the path; refuse to run without it (never
    fall back to some other installed copy of the package)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {src}")


def source_digest() -> str:
    """sha256 over the program's ``src/`` files (the checkout may not be
    a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def context(args: argparse.Namespace, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_digest": source_digest(),
        "params": workload.describe(),
    }


def _stop_helpers() -> None:
    """Reap every helper process the run started: the program's worker
    pools are joined when their models are collected, and the
    shared-memory resource tracker it launches is stopped here rather
    than left to exit after this process does."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _number(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def run(args: argparse.Namespace) -> int:
    _import_program()
    import workloads

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(
            f"error: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS)
        )
    workload = workloads.WORKLOADS[args.workload]
    if args.scale == "smoke":
        workload = workloads.smoke(workload)
    ctx = context(args, workload)
    print("context " + json.dumps(ctx, sort_keys=True), flush=True)

    work_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run_workload(
            workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    except workloads.FatalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        _stop_helpers()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.layers if args.trace else outcome.metrics
    units = {m["name"]: m["unit"] for m in declared}
    ledger = outcome.ledger
    if set(values) != set(units):
        ledger.check(
            False,
            f"emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}",
        )

    print(f"workload {workload.name} seed {args.seed}: " + ", ".join(
        f"{k}={v:g}" for k, v in outcome.notes.items()
    ))
    for name in units:
        if name in values:
            print(f"  {name:<28} {values[name]:>14.6g} {units[name]}")
    for failure in ledger.failures:
        print(f"  FAILED: {failure}")
    if outcome.recorder is not None:
        trace_out = args.trace_out or (
            ROOT / ".perfbench_out" / f"trace-{workload.name}-{args.seed}.json"
        )
        outcome.recorder.write(Path(trace_out))
        print(f"  spans: {len(outcome.recorder.spans)} written to {trace_out}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": _number(values[name]), "unit": units[name]}
            for name in units
            if name in values
        },
    }
    if args.out:
        with open(args.out, "a") as fh:
            record = {"context": ctx, "result": result, "notes": outcome.notes}
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: toy sizes for the self-tests")
    parser.add_argument("--out", help="append the run's record to this JSONL file")
    parser.add_argument("--trace-out", help="span dump path (trace runs)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out result sets and exit")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        rows = compare.compare(
            Path(args.compare[0]), Path(args.compare[1]), load_spec()
        )
        print("\n".join(compare.format_rows(rows)))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
