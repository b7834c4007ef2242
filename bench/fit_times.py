"""In-process times of every (method, feature set) fit, on two checkouts alternately: the fit yardstick.

    python3 bench/fit_times.py --parent ../parent --change ../change_ --rounds 4 > fit_times.json
    python3 bench/ab.py ... --extra fit_times.json

Two draws of ``fig3_boundary_decay``, each split as ``run_protocol``
splits its first repetition (``stratified_split`` at the default train
fraction):

* ``protocol_grid``: perfbench's protocol_grid draw, 8,000 samples of
  scenario seed 1, split by ``default_rng([1, 0])``;
* ``fig3_100k``: 100,000 samples of scenario seed 3, split by
  ``default_rng([0, 0])``.

Every fit is ``calibrators.fit`` on the training rows with the default
settings. Each round runs one fresh interpreter per checkout, alternating
which goes first, with that checkout's ``src`` on ``PYTHONPATH``. The
interpreter times each fit ``--calls`` times, untraced, and then fits it
once more with ``calibrators.minimize`` wrapped to count objective values
(every call, line-search trials included) and gradients (arrays returned,
or gradient callables called). ``model`` is a SHA-256 prefix of the
model's JSON, so equal digests on both sides mean bit-identical fits.
Prints one JSON object whose key ``fit_times`` holds, per draw and fit,
both sides' counts and digests and each round's best time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SCENARIO = "fig3_boundary_decay"
DRAWS = {"protocol_grid": (8_000, 1, [1, 0]), "fig3_100k": (100_000, 3, [0, 0])}
METHODS = ("hb", "lc", "lc-dep", "bc", "bc-dep")
FEATURE_SETS = ("conf", "conf+xy", "conf+wh", "full")
SIDES = ("parent", "change")


def _counting(minimize, counts: dict):
    """``minimize`` with its objective wrapped to count values and gradients into ``counts``."""
    def counted_minimize(objective, x0, *args, **kwargs):
        def counted(theta):
            counts["values"] += 1
            value, g = objective(theta)
            if not callable(g):
                counts["gradients"] += 1
                return value, g

            def gradient():
                counts["gradients"] += 1
                return g()

            return value, gradient

        return minimize(counted, x0, *args, **kwargs)

    return counted_minimize


def measure(calls: int) -> dict:
    """One side's round, in this interpreter: every fit of both draws, timed and counted."""
    import numpy as np

    from detcal import calibrators, synth
    from detcal.features import feature_set, labels
    from detcal.harness import METHOD_KEYS, ProtocolConfig, stratified_split

    out = {}
    for draw, (n, seed, split) in DRAWS.items():
        samples = synth.generate(synth.make_scenario(SCENARIO, n, seed))
        fraction = ProtocolConfig(METHODS, FEATURE_SETS).train_fraction
        train_idx, _ = stratified_split(labels(samples), fraction, np.random.default_rng(split))
        train = samples.take(train_idx)
        fits = out[draw] = {}
        for method in METHODS:
            for fs in FEATURE_SETS:
                args = (METHOD_KEYS[method], train, feature_set(fs).members)
                times = []
                for _ in range(calls):
                    start = time.perf_counter()
                    calibrators.fit(*args)
                    times.append(time.perf_counter() - start)
                counts = {"values": 0, "gradients": 0}
                minimize = calibrators.minimize
                calibrators.minimize = _counting(minimize, counts)
                try:
                    model = calibrators.fit(*args)
                finally:
                    calibrators.minimize = minimize
                digest = hashlib.sha256(json.dumps(calibrators.model_to_json(model)).encode()).hexdigest()
                fits[f"{method} {fs}"] = {"iterations": model.fit_metadata.n_iterations, **counts,
                                          "model": digest[:16], "best_s": min(times)}
    return out


def summarize(record: dict) -> dict:
    """Per draw and fit: both sides' counts and digests (from round 0), and each round's best time."""
    out = {}
    for draw in DRAWS:
        fits = {}
        for key in record["parent"][0][draw]:
            rounds = {side: [r[draw][key] for r in record[side]] for side in SIDES}
            fit = {field: {side: rounds[side][0][field] for side in SIDES}
                   for field in ("iterations", "values", "gradients", "model")}
            fit["same_model"] = fit["model"]["parent"] == fit["model"]["change"]
            fit["best_s"] = {side: [r["best_s"] for r in rounds[side]] for side in SIDES}
            fits[key] = fit
        totals = {side: [sum(r[draw][key]["best_s"] for key in fits) for r in record[side]] for side in SIDES}
        bc_dep = {side: [sum(r[draw][key]["best_s"] for key in fits if key.startswith("bc-dep "))
                         for r in record[side]] for side in SIDES}
        out[draw] = {"all_fits_s": totals, "bc_dep_fits_s": bc_dep, "fits": fits}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--calls", type=int, default=3, help="timed fits per round, side and fit")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.calls)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    record = {side: [] for side in SIDES}
    for r in range(args.rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            env = {**os.environ, "PYTHONPATH": str(getattr(args, side).resolve() / "src")}
            done = subprocess.run([sys.executable, __file__, "--calls", str(args.calls), "--one"],
                                  capture_output=True, text=True, env=env, check=True)
            record[side].append(json.loads(done.stdout))
            total = sum(sum(f["best_s"] for f in draw.values()) for draw in record[side][-1].values())
            print(f"round {r} {side}: all fits {total:.3f} s", file=sys.stderr, flush=True)
    print(json.dumps({"fit_times": {
        "workload": {draw: f"{SCENARIO}, n = {n:,}, scenario seed {seed}, split default_rng({split}): "
                           f"calibrators.fit of {', '.join(METHODS)} on {', '.join(FEATURE_SETS)}"
                     for draw, (n, seed, split) in DRAWS.items()},
        "method": f"{args.rounds} rounds, one fresh interpreter per round and side, the parent first in even "
                  f"rounds; each fit timed {args.calls} times untraced (best_s is each round's best), then "
                  "counted once: values are objective calls, gradients the gradients computed",
        **summarize(record),
    }}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
