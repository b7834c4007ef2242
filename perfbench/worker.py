"""One benchmark worker: a fresh process that runs one workload once.

    python3 perfbench/worker.py prepare --workload W --work DIR --seed N --sizes JSON
    python3 perfbench/worker.py run --workload W --work DIR --seed N --sizes JSON \
        --trace 0|1 [--inject-fault]

``prepare`` writes the workload's seeded inputs. ``run`` imports detcal from
the checkout's ``src``, sets the workload up, runs its timed part, checks the
outputs and prints one JSON result line. The result carries ``ready_at``, the
``time.monotonic()`` reading when set-up finished; on Linux that clock is
shared between processes, so the parent measures set-up from its own start
reading. The timed part is a list of steps, and :func:`reference_kernel`
runs before the first step and after each one: ``wall_scaled_s`` divides
each step's time by the mean of the two kernel times around it (see
:func:`run`). With ``--trace 1`` the layers are wrapped by :mod:`spans`, the
spans are written next to the outputs, and the per-layer metrics are
returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Scaled times are seconds on a host where the reference kernel takes this
# long (about its time on 2 vCPUs of an Intel Xeon, 2026).
NOMINAL_REF_S = 0.05


def import_detcal():
    """Import detcal from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    if not (src / "detcal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no detcal package under {src}")
    sys.path.insert(0, str(src))
    import detcal
    import detcal.cli

    if Path(detcal.__file__).resolve().parent != (src / "detcal").resolve():
        raise SystemExit(f"perfbench: imported detcal from {detcal.__file__}, not from {src}")
    return detcal


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def reference_kernel() -> float:
    """Time a fixed piece of JSON and numpy work that does not touch detcal.

    The speed of the vCPU a worker runs on swings by up to 1.7x within a
    second or two, and the timed steps swing with it. :func:`run` divides
    each step's time by this kernel's, measured just before and just after
    the step. The kernel stays single-threaded (no BLAS) and runs with the
    garbage collector off, so neither detcal's thread settings nor the
    objects it leaves alive change its time.
    """
    import gc

    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        records = [{"id": i, "conf": float(v), "box": [float(a) for a in rng.random(4)],
                    "label": int(v > 0.5)} for i, v in enumerate(rng.random(1500))]
        text = "\n".join(json.dumps(r) for r in records)
        back = [json.loads(line) for line in text.splitlines()]
        x = rng.random((10000, 8))
        for _ in range(5):
            y = np.log1p(np.exp(-(x * rng.random(8)).sum(axis=1)))
            x = np.sort(x, axis=0)
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if len(back) != len(records) or not np.isfinite(y).all():
        raise RuntimeError("reference kernel gave a wrong result")
    return elapsed


def run(args, detcal, workload_cls) -> dict:
    from workloads import Ops

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(run_id=args.work.name)
    call = tracer.call if tracer else _untraced
    workload = workload_cls(detcal, args.work, args.seed, args.sizes, call)
    result: dict = {}
    try:
        workload.setup()
        if tracer:
            tracer.install()
        result["ready_at"] = time.monotonic()
        reference_kernel()  # warm-up, not counted
        refs = [reference_kernel()]
        outputs, steps, cpu = {}, [], 0.0
        for name, step in workload.steps():
            cpu0, t0 = _cpu_s(), time.perf_counter()
            outputs[name] = step()
            steps.append(time.perf_counter() - t0)
            cpu += _cpu_s() - cpu0
            refs.append(reference_kernel())
        scaled = sum(t * NOMINAL_REF_S / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(steps))
        result.update(wall_s=sum(steps), wall_scaled_s=scaled, cpu_s=cpu,
                      setup_ref_s=refs[0], ref_s=statistics.median(refs),
                      peak_rss_mb=_peak_rss_mb(), step_s=steps, refs_s=refs)
    except Exception:
        ops = Ops()
        ops.expect("worker", False, traceback.format_exc())
        result["ops"] = ops.summary()
        return result
    finally:
        if tracer:
            tracer.uninstall()
            tracer.write(args.work.parent / f"spans-{args.work.name}.jsonl")
    if tracer:
        result["layers"] = tracer.layer_metrics()
    result["ops"] = workload.check(outputs, args.inject_fault).summary()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["prepare", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", type=json.loads, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    detcal = import_detcal()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    if args.mode == "prepare":
        workload_cls(detcal, args.work, args.seed, args.sizes, _untraced).prepare()
        result = {"prepared": True}
    else:
        result = run(args, detcal, workload_cls)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
