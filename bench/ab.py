"""A/B benchmark of two checkouts: alternating perfbench runs, written as ``bench/BENCH_<pr>.json``.

    python3 bench/ab.py --parent ../parent --change ../change_ --pr 23 \
        --note "what the change does" --seeds 41-50

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once from each checkout, one run at a time, the parent first in odd pairs
and the change first in even ones, for every workload of ``BENCHMARK.json``
and for its ``run_seconds`` T. Peak RSS responds to code layout, including
the length of the checkout's path, so both paths must be of equal length.
The record holds, per workload, the seeds, which side ran first, each run's
correct/failed/attempted counts, and for ``wall_s``, ``setup_s`` and
``peak_rss_mb`` both sides' values summarized as ``perfbench/repeat.py``
does, the pairs each side won (lower is better; ties count for neither) and
the change in the median. The environment block is that of the first run's
report. ``--extra FILE`` merges the top-level keys of a JSON object into the
record, for measurements taken outside perfbench.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
from repeat import _seeds, summarize  # noqa: E402

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
MIN_PAIRS = 10


def run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One perfbench run from ``checkout``: its result line and its report's environment block."""
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    *_, report, result = done.stdout.strip().splitlines()
    environment = json.loads(report)["environment"]
    return json.loads(result), {k: v for k, v in environment.items() if k not in ("seed", "sizes")}


def record_workload(runs: list[dict], pair_seeds: list[int]) -> dict:
    """The record of one workload from its runs, ``runs[i][side]`` being pair i's result on that side."""
    out = {"seeds": pair_seeds, "first": [SIDES[i % 2] for i in range(len(runs))]}
    for key in ("correct", "failed", "attempted"):
        out[key] = {side: [r[side][key] for r in runs] for side in SIDES}
    for metric in METRICS:
        values = {side: [r[side]["metrics"][metric]["value"] for r in runs] for side in SIDES}
        out[metric] = {side: summarize(values[side]) for side in SIDES}
        pairs = list(zip(values["parent"], values["change"]))
        out[metric]["change_wins"] = sum(c < p for p, c in pairs)
        out[metric]["parent_wins"] = sum(p < c for p, c in pairs)
        out[metric]["median_change"] = out[metric]["change"]["median"] - out[metric]["parent"]["median"]
    return out


def git_head(checkout: Path) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--note", required=True, help="one line saying what the change does")
    parser.add_argument("--parent-sha", help="the parent commit, when its checkout is no git work tree")
    parser.add_argument("--seeds", type=_seeds, required=True, help=f"at least {MIN_PAIRS}: one pair each")
    parser.add_argument("--extra", type=Path, help="JSON object whose keys are added to the record")
    args = parser.parse_args(argv)
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds, workloads = benchmark["run_seconds"], [w["name"] for w in benchmark["workloads"]]

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} holds no perfbench/run.py")
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error("the two checkouts' paths differ in length, which moves peak_rss_mb")
    if len(args.seeds) < MIN_PAIRS:
        parser.error(f"{len(args.seeds)} seeds given; at least {MIN_PAIRS} pairs are needed")

    environment, record = None, {}
    for workload in workloads:
        runs = []
        for i, seed in enumerate(args.seeds):
            pair = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[side], env = run(checkouts[side], workload, seed, seconds)
                environment = environment or env
                wall = pair[side]["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.4f}", file=sys.stderr, flush=True)
            runs.append(pair)
        record[workload] = record_workload(runs, args.seeds)

    out = {
        "pr": args.pr,
        "change": args.note,
        "parent": args.parent_sha or git_head(checkouts["parent"]),
        "method": (f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, run by "
                   f"bench/ab.py from two checkouts whose paths are of equal length, one run at a time; "
                   f"{len(args.seeds)} pairs per workload on seeds {', '.join(map(str, args.seeds))}, the parent "
                   "first in odd pairs and the change first in even ones. Metrics are the runs' end-to-end "
                   "medians over their untraced workers, times scaled to the nominal host speed. A pair is won "
                   "by the side with the lower value; ties count for neither."),
        "environment": environment,
        "workloads": record,
    }
    if args.extra:
        out.update(json.loads(args.extra.read_text()))
    path = HERE / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
