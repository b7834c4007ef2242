"""detcal benchmark: seeded workloads, each iteration in a fresh worker process.

    python3 perfbench/run.py --workload cli_chain --seed 1 --seconds 20 --trace 0

Workloads: cli_chain, protocol_grid, coco_match (see perfbench/README.md).
The run prepares the seeded inputs once, then starts workers one at a time
until ``--seconds`` have passed (at least three, or two untraced and two
traced ones with ``--trace 1``). Every worker's outputs are checked.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (medians
over the untraced workers) with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``setup_s`` and ``wall_s`` are scaled to a nominal host
speed: each timed step, and the set-up, is divided by the time of the
reference kernel run next to it (see ``worker.reference_kernel``) and
multiplied by ``worker.NOMINAL_REF_S``; the raw times are in the report and
among the per-layer metrics. The lines before the result list every
metric by name and unit and give the full report, environment included;
the report is also written to ``.perfbench_work/<workload>/report.json``
in the checkout.

``--smoke`` runs tiny inputs; ``--inject-fault`` corrupts one output before
the checks, which must then count a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from spans import PER_LAYER, is_exact  # noqa: E402
from worker import NOMINAL_REF_S  # noqa: E402
from workloads import SIZES, SMOKE_SIZES, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 120


def environment(seed: int, sizes: dict) -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "seed": seed,
        "sizes": sizes,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    env.update(_git_state())
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_state() -> dict:
    """SHA and dirty flag when the checkout is itself a git work tree."""

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return {"git_sha": None, "git_dirty": None}
        return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def start_worker(mode: str, args, work: Path, sizes: dict, traced: bool = False) -> dict:
    """Run one worker to completion; returns its result plus the parent's timings."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--work", str(work), "--seed", str(args.seed), "--sizes", json.dumps(sizes),
           "--trace", str(int(traced))]
    if args.inject_fault:
        cmd.append("--inject-fault")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _failed_worker(f"worker timed out after {WORKER_TIMEOUT_S} s", traced)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return _failed_worker(f"worker exited with {proc.returncode} and no result", traced)
    if "ready_at" in result:
        result["setup_s"] = result["ready_at"] - started
    result["traced"] = traced
    return result


def _failed_worker(message: str, traced: bool) -> dict:
    return {"traced": traced, "ops": {"attempted": 1, "failed": 1, "failures": {"worker": [message]}}}


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(results: list[dict], trace: bool) -> tuple[dict, dict]:
    """Medians over the workers, plus the determinism failures of the exact counts."""
    plain = [r for r in results if not r["traced"] and "wall_s" in r]
    traced = [r for r in results if r["traced"] and "layers" in r]

    def setup(r):
        return r["setup_s"] * NOMINAL_REF_S / r["setup_ref_s"]

    if not trace:
        return {"setup_s": (_median([setup(r) for r in plain]), "s"),
                "wall_s": (_median([r["wall_scaled_s"] for r in plain]), "s"),
                "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB")}, {}
    metrics, drift = {}, {}
    for name, unit, _ in PER_LAYER:
        values = [r["layers"][name] for r in traced]
        if is_exact(name) and len(set(values)) > 1:
            drift[name] = values
        metrics[name] = (values[0] if is_exact(name) else _median(values)) if values else 0.0, unit
    metrics["process.cpu_s"] = (_median([r["cpu_s"] for r in plain]), "s")
    metrics["process.cpu_util"] = (_median([r["cpu_s"] / r["wall_s"] for r in plain]), "fraction")
    metrics["trace.overhead_s"] = (_median([r["wall_scaled_s"] for r in traced])
                                   - _median([r["wall_scaled_s"] for r in plain]), "s")
    metrics["process.wall_raw_s"] = (_median([r["wall_s"] for r in plain]), "s")
    metrics["process.setup_raw_s"] = (_median([r["setup_s"] for r in plain]), "s")
    metrics["process.ref_s"] = (_median([r["ref_s"] for r in plain]), "s")
    return metrics, drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for self-tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one output before the checks")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "detcal" / "__init__.py").is_file():
        print(f"perfbench: no detcal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sizes = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed, sizes)
    prepared = start_worker("prepare", args, work / "prepare", sizes)
    if not prepared.get("prepared"):
        print(f"perfbench: preparing {args.workload} failed: {prepared['ops']}", file=sys.stderr)
        return 3

    min_workers = 4 if args.trace else 3
    results: list[dict] = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        it = work / f"it{len(results):03d}"
        results.append(start_worker("run", args, it, sizes, traced))
        # Keep the spans; drop the bulky outputs of every finished worker.
        shutil.rmtree(it, ignore_errors=True)
        elapsed = time.monotonic() - begin
        if len(results) >= min_workers and elapsed * (1 + 1 / len(results)) > args.seconds:
            break

    metrics, drift = summarize(results, bool(args.trace))
    attempted = sum(r["ops"]["attempted"] for r in results)
    failed = sum(r["ops"]["failed"] for r in results)
    failures = [f for r in results for f in r["ops"]["failures"].items()]
    if drift:
        attempted, failed = attempted + 1, failed + 1
        failures.append(("exact counts repeat", [f"{k}: {v}" for k, v in drift.items()]))
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "workers": len(results),
        "failed_ops_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_worker": [{k: r.get(k) for k in ("traced", "setup_s", "setup_ref_s", "wall_s",
                                              "wall_scaled_s", "cpu_s", "ref_s", "peak_rss_mb",
                                              "step_s", "refs_s")}
                       for r in results],
        "environment": env,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6f} {unit}")
    print(f"{'failed_ops_frac':<48} {failed / attempted:>14.6f} fraction "
          f"({failed} of {attempted} operations)")
    for op, messages in failures[:5]:
        print(f"FAILED {op}: {messages[0][:300]}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
