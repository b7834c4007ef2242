"""Span tracer for the traced benchmark run.

The tracer replaces a layer's public functions with timing wrappers, in the
namespace of each module that calls them (``detcal.cli.read_matched_samples``,
``detcal.calibrators.minimize``, ...), for the lifetime of one worker. The
package source is never modified and nothing is wrapped in untraced runs.

Spans (name, start, end, parent, run id) stay in memory and are written as
JSON Lines when the worker ends. Per-layer metrics are derived from them:
a layer's time is the sum of its span durations, and a span's self time is
its duration minus the part of its interval its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

METHODS = ("hb", "lc", "lc-dep", "bc", "bc-dep")
PARAMETRIC = METHODS[1:]
FEATURE_SETS = ("conf", "conf+xy", "conf+wh", "full")
CLI_COMMANDS = ("match", "synth", "fit", "apply", "eval", "heatmap", "protocol")

# Short method keys and feature-set names used in metric names.
_METHOD_KEYS = {
    "hist_binning": "hb",
    "logistic_indep": "lc",
    "logistic_dep": "lc-dep",
    "beta_indep": "bc",
    "beta_dep": "bc-dep",
}
_FS_BY_MEMBERS = {
    ("confidence",): "conf",
    ("confidence", "cx", "cy"): "conf+xy",
    ("confidence", "w", "h"): "conf+wh",
    ("confidence", "cx", "cy", "w", "h"): "full",
}


def cell_key(method: str, fs_name: str) -> str:
    return f"{method}.{fs_name.replace('+', '_')}"


def _per_layer_catalog() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for layer in ("matching.read_matched_samples", "matching.write_matched_samples",
                  "synth.generate", "detections.load_dataset"):
        add(f"{layer}.s", "s")
        add(f"{layer}.records", "count", "higher")
    add("matching.match_detections.s", "s")
    add("matching.match_detections.detections", "count", "higher")
    add("matching.match_detections.pairs", "count", "higher")
    add("matching.match_detections.matched_frac", "fraction", "higher")
    for method in METHODS:
        for fs in FEATURE_SETS:
            add(f"calibrators.fit.{cell_key(method, fs)}.s", "s")
    for method in PARAMETRIC:
        for fs in FEATURE_SETS:
            key = cell_key(method, fs)
            add(f"calibrators.fit.{key}.iterations", "count")
            add(f"calibrators.fit.{key}.obj_evals", "count")
            add(f"calibrators.fit.{key}.nll", "nats")
    add("optimizer.minimize.s", "s")
    add("optimizer.minimize.calls", "count")
    add("optimizer.accept_ratio", "fraction", "higher")
    for fn in ("apply", "save_model", "load_model"):
        add(f"calibrators.{fn}.s", "s")
    for fn in ("build_feature_matrix", "raw_values", "labels"):
        add(f"features.{fn}.s", "s")
        add(f"features.{fn}.calls", "count")
    add("metrics.compute_d_ece.s", "s")
    add("metrics.compute_d_ece.calls", "count")
    add("metrics.compute_d_ece.retained_frac", "fraction", "higher")
    add("metrics.heatmap.s", "s")
    add("harness.run_protocol.s", "s")
    add("harness.self_s", "s")
    add("harness.self_frac", "fraction")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}.s", "s")
        add(f"cli.{cmd}.calls", "count")
    add("cli.self_s", "s")
    add("process.cpu_s", "s")
    add("process.cpu_util", "fraction", "higher")
    add("trace.overhead_s", "s")
    add("process.wall_raw_s", "s")
    add("process.setup_raw_s", "s")
    add("process.ref_s", "s")
    return out


PER_LAYER = _per_layer_catalog()
# Counts that must repeat bit-for-bit across traced runs with the same seed.
EXACT_SUFFIXES = (".records", ".detections", ".pairs", ".matched_frac",
                  ".iterations", ".obj_evals", ".nll", ".calls")


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)


class Tracer:
    """In-memory spans and counters for one traced worker."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.nll: dict[str, list[float]] = defaultdict(list)
        self._cell: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "run": self.run_id}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def _wrap(self, module, attr: str, name: str, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                # A span of its own keeps the counting out of the caller's self time.
                with self.span("trace.count"):
                    after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap each layer's public functions where its callers look them up."""
        from detcal import calibrators, cli, features, harness, metrics, synth

        count = self.counts

        def records(layer):
            def after(args, kwargs, result):
                count[f"{layer}.records"] += len(result)
            return after

        def written(args, kwargs, result):
            count["matching.write_matched_samples.records"] += len(args[0])

        def loaded(args, kwargs, result):
            detections, ground_truth, _ = result
            count["detections.load_dataset.records"] += len(detections) + len(ground_truth)

        def matched(args, kwargs, result):
            detections, ground_truth = args[0], args[1]
            exclude_crowd = kwargs.get("exclude_crowd", True)
            gt_sizes: dict = defaultdict(int)
            for gt in ground_truth:
                if not (exclude_crowd and gt.crowd_flag):
                    gt_sizes[(gt.image_id, gt.category_id)] += 1
            count["matching.match_detections.detections"] += len(detections)
            count["matching.match_detections.pairs"] += sum(
                gt_sizes.get((d.image_id, d.category_id), 0) for d in detections
            )
            count["matching.match_detections.matched"] += sum(s.matched for s in result)

        def d_ece(args, kwargs, result):
            _, stats = result
            count["metrics.compute_d_ece.retained"] += stats.retained_samples
            count["metrics.compute_d_ece.total"] += stats.total_samples

        self._wrap(cli, "read_matched_samples", "matching.read_matched_samples",
                   records("matching.read_matched_samples"))
        self._wrap(cli, "write_matched_samples", "matching.write_matched_samples", written)
        self._wrap(cli, "load_dataset", "detections.load_dataset", loaded)
        self._wrap(cli, "heatmap", "metrics.heatmap")
        for caller in (cli, harness):
            self._wrap(caller, "match_detections", "matching.match_detections", matched)
        for caller in (cli, harness, metrics):
            self._wrap(caller, "compute_d_ece", "metrics.compute_d_ece", d_ece)
        for caller in (calibrators, harness, metrics):
            self._wrap(caller, "labels", "features.labels")
        for caller in (calibrators, metrics, features):
            self._wrap(caller, "raw_values", "features.raw_values")
        self._wrap(calibrators, "build_feature_matrix", "features.build_feature_matrix")
        # cli and harness call these through the module object.
        self._wrap(synth, "generate", "synth.generate", records("synth.generate"))
        for fn in ("apply", "save_model", "load_model"):
            self._wrap(calibrators, fn, f"calibrators.{fn}")
        self._install_fit(calibrators)

    def _install_fit(self, calibrators) -> None:
        fit, minimize = calibrators.fit, calibrators.minimize

        def traced_fit(method, samples, fs, **kwargs):
            members = tuple(getattr(fs, "members", fs))
            key = cell_key(_METHOD_KEYS.get(method, method), _FS_BY_MEMBERS.get(members, "other"))
            outer, self._cell = self._cell, key
            try:
                with self.span("calibrators.fit", cell=key):
                    model = fit(method, samples, fs, **kwargs)
            finally:
                self._cell = outer
            if model.fit_metadata.final_nll is not None:
                self.nll[key].append(model.fit_metadata.final_nll)
            return model

        def traced_minimize(objective, x0, *args, **kwargs):
            evals = 0

            def counted(theta):
                nonlocal evals
                evals += 1
                return objective(theta)

            with self.span("optimizer.minimize"):
                x, report = minimize(counted, x0, *args, **kwargs)
            self.counts["optimizer.iterations"] += report.iterations
            self.counts["optimizer.obj_evals"] += evals
            if self._cell is not None:
                self.counts[f"calibrators.fit.{self._cell}.iterations"] += report.iterations
                self.counts[f"calibrators.fit.{self._cell}.obj_evals"] += evals
            return x, report

        for module, attr, fn in ((calibrators, "fit", traced_fit),
                                 (calibrators, "minimize", traced_minimize)):
            fn.__wrapped__ = getattr(module, attr)
            self._patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, fn)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its direct children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for rec in self.spans:
            if rec["parent"] is not None:
                children[rec["parent"]].append((rec["start"], rec["end"]))
        out = []
        for i, rec in enumerate(self.spans):
            covered, reach = 0.0, rec["start"]
            for start, end in sorted(children.get(i, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(rec["end"] - rec["start"] - covered)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this worker, keyed as in :data:`PER_LAYER`."""
        m: dict[str, float] = defaultdict(float)
        self_s = self.self_times()
        for rec, own in zip(self.spans, self_s):
            name = rec["name"]
            duration = rec["end"] - rec["start"]
            if name == "calibrators.fit":
                m[f"calibrators.fit.{rec['attrs']['cell']}.s"] += duration
            elif name.startswith("cli."):
                m["cli.self_s"] += own
            elif name == "harness.run_protocol":
                m["harness.self_s"] += own
            m[f"{name}.s"] += duration
            m[f"{name}.calls"] += 1
        c = self.counts
        for key, value in c.items():
            if key.startswith(("calibrators.fit.", "matching.", "synth.", "detections.")):
                m[key] = value
        m["optimizer.accept_ratio"] = _ratio(c["optimizer.iterations"], c["optimizer.obj_evals"])
        m["matching.match_detections.matched_frac"] = _ratio(
            c["matching.match_detections.matched"], c["matching.match_detections.detections"]
        )
        m["metrics.compute_d_ece.retained_frac"] = _ratio(
            c["metrics.compute_d_ece.retained"], c["metrics.compute_d_ece.total"]
        )
        m["harness.self_frac"] = _ratio(m["harness.self_s"], m["harness.run_protocol.s"])
        for key, values in self.nll.items():
            m[f"calibrators.fit.{key}.nll"] = sum(values) / len(values)
        names = {name for name, _, _ in PER_LAYER}
        return {name: float(m.get(name, 0.0)) for name in names}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
