"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads cli_chain,coco_match --seeds 1-10 \
        [--seconds 38] [--trace 0] [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one at a time, and reports per
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median. ``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, capture_output=True, text=True,
                                   check=True).stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            environment = json.loads(lines[-2])["environment"]
        metrics = {name: {"unit": info["unit"],
                          **summarize([r["metrics"][name]["value"] for r in runs])}
                   for name, info in runs[0]["metrics"].items()}
        summary["workloads"][workload] = {
            "seeds": _seeds(args.seeds),
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": metrics,
            "environment": environment,
        }
        print(f"{workload}: correct {[r['correct'] for r in runs]}")
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:<44} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
