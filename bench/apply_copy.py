"""In-process timing of ``apply``'s write of a COCO ``match`` output, on two checkouts alternately.

    python3 bench/apply_copy.py --parent ../parent --change ../change_ --rounds 4 > apply_copy.json
    python3 bench/ab.py ... --extra apply_copy.json

The input is one COCO pair of ``perfbench/workloads.make_coco`` with 1,000
images of 100 detections, 100,000 rows. Each round runs one fresh
interpreter per checkout, alternating which goes first, with that
checkout's ``src`` on ``PYTHONPATH``. It runs ``detcal match`` on the pair
and ``detcal fit --method lc --features conf --pooled`` on the output,
reads the output as ``apply`` does (from the sidecar ``match`` left),
computes the calibrated scores, and then times ``write_matched_samples(
samples, out, scores=scores)``, the write ``apply`` makes, ``--calls``
times. ``copied`` says whether the table names a file whose lines the
write may copy.
Prints one JSON object whose key ``apply_copy`` holds both sides' times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIZES = {"images": 1000, "detections_per_image": 100, "gt_per_image": 7, "categories": 3}
SEED = 2701
SIDES = ("parent", "change")


def make_inputs(work: Path) -> tuple[Path, Path]:
    """The COCO annotation and results files of the measured pair, written once into ``work``."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import make_coco

    doc, results = make_coco(SEED, 0, SIZES)
    ann, dets = work / "instances.json", work / "results.json"
    ann.write_text(json.dumps(doc))
    dets.write_text(json.dumps(results))
    return ann, dets


def measure(ann: Path, dets: Path, work: Path, calls: int) -> dict:
    """One side's round, in this interpreter: the times of ``calls`` writes of ``apply``'s output."""
    from detcal import calibrators
    from detcal.cli import main
    from detcal.matching import read_matched_samples, write_matched_samples

    matched, model, out = work / "matched.jsonl", work / "lc.json", work / "calibrated.jsonl"
    assert main(["match", "--detections", str(dets), "--annotations", str(ann), "--format", "coco",
                 "--iou", "0.5", "--out", str(matched)]) == 0
    assert main(["fit", "--in", str(matched), "--method", "lc", "--features", "conf", "--pooled",
                 "--out", str(model)]) == 0
    samples = read_matched_samples(matched)
    scores = calibrators.apply(calibrators.load_model(model), samples)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        write_matched_samples(samples, out, scores=scores)
        times.append(time.perf_counter() - start)
    return {"rows": len(samples), "copied": getattr(samples, "_source", None) is not None,
            "best_s": min(times), "median_s": statistics.median(times), "times_s": times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--calls", type=int, default=5, help="timed writes per round and side")
    parser.add_argument("--one", nargs=3, metavar=("ANN", "DETS", "WORK"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        ann, dets, work = map(Path, args.one)
        print(json.dumps(measure(ann, dets, work, args.calls)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    record = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        ann, dets = make_inputs(Path(tmp))
        for r in range(args.rounds):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                work = Path(tmp) / f"{side}-{r}"
                work.mkdir()
                src = str(getattr(args, side).resolve() / "src")
                env = {**os.environ, "PYTHONPATH": src}
                done = subprocess.run(
                    [sys.executable, __file__, "--calls", str(args.calls), "--one", str(ann), str(dets), str(work)],
                    capture_output=True, text=True, env=env, check=True)
                record[side].append(json.loads(done.stdout))
                print(f"round {r} {side}: best {record[side][-1]['best_s']:.4f} s", file=sys.stderr, flush=True)
    summary = {side: {"rows": runs[0]["rows"], "copied": [run["copied"] for run in runs],
                      "best_s": [run["best_s"] for run in runs], "median_s": [run["median_s"] for run in runs]}
               for side, runs in record.items()}
    print(json.dumps({"apply_copy": {
        "workload": f"make_coco(seed={SEED}, shard=0, {SIZES}): detcal match at IoU 0.5, then lc conf fit on "
                    "its output, and write_matched_samples(samples, out, scores=apply(model, samples)) on the "
                    "table read from the match output's sidecar",
        "method": f"{args.rounds} rounds, one fresh interpreter per round and side, the parent first in even "
                  f"rounds; {args.calls} timed writes each; best_s and median_s list each round's best and median",
        **summary,
    }}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
