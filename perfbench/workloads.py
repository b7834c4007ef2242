"""The benchmark's workloads: seeded inputs, the timed part, and output checks.

Each workload has four parts. ``prepare`` runs once per benchmark run and
writes the seeded inputs. ``setup`` runs in every worker before it reports
ready. ``steps`` lists the measured calls into detcal's public API, as
(name, callable) pairs; the worker times each one and runs its reference
kernel between them. ``check`` takes the steps' outputs by name and returns,
per operation, the list of failed checks.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
from pathlib import Path

import numpy as np

METHODS = ("hb", "lc", "lc-dep", "bc", "bc-dep")
FEATURE_SETS = ("conf", "conf+xy", "conf+wh", "full")
SCENARIO = "fig3_boundary_decay"

# Sizes for a measured run, and tiny ones for the smoke test.
SIZES = {
    "cli_chain": {"n": 10_000},
    "protocol_grid": {"n": 8_000, "reps": 1},
    "coco_match": {"shards": 12, "images": 50, "detections_per_image": 100, "gt_per_image": 7,
                   "categories": 3, "checked_groups": 8},
}
SMOKE_SIZES = {
    "cli_chain": {"n": 3_000},
    "protocol_grid": {"n": 5_000, "reps": 1},
    "coco_match": {"shards": 2, "images": 6, "detections_per_image": 30, "gt_per_image": 7,
                   "categories": 3, "checked_groups": 5},
}

_DECE = re.compile(r"D-ECE = ([0-9.]+)%")


class Ops:
    """Operations attempted in one worker, each with its failed checks."""

    def __init__(self):
        self.failures: dict[str, list[str]] = {}

    def expect(self, op: str, ok: bool, message: str) -> None:
        self.failures.setdefault(op, [])
        if not ok:
            self.failures[op].append(message)

    def summary(self) -> dict:
        failed = {op: msgs for op, msgs in self.failures.items() if msgs}
        return {"attempted": len(self.failures), "failed": len(failed), "failures": failed}


def _count_lines(path: Path) -> int:
    if not path.exists():
        return -1
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


# ---------------------------------------------------------------------------
# cli_chain: the README quickstart through detcal.cli.main


class CliChain:
    name = "cli_chain"

    def __init__(self, detcal, work: Path, seed: int, sizes: dict, call):
        self.cli = detcal.cli
        self.work, self.seed, self.n = work, seed, sizes["n"]
        self.call = call

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def _commands(self) -> list[tuple[str, list[str]]]:
        w = self.work
        raw, lc, dep = str(w / "matched.jsonl"), str(w / "cal_lc.jsonl"), str(w / "cal_dep.jsonl")
        return [
            ("synth", ["synth", "--scenario", SCENARIO, "--n", str(self.n),
                       "--seed", str(self.seed), "--out", raw]),
            ("fit lc conf", ["fit", "--in", raw, "--method", "lc", "--features", "conf",
                             "--out", str(w / "lc.json")]),
            ("apply lc", ["apply", "--model", str(w / "lc.json"), "--in", raw, "--out", lc]),
            ("eval raw conf", ["eval", "--in", raw, "--features", "conf", "--bins", "20"]),
            ("eval lc conf", ["eval", "--in", lc, "--features", "conf", "--bins", "20"]),
            ("fit lc-dep conf+xy", ["fit", "--in", raw, "--method", "lc-dep",
                                    "--features", "conf+xy", "--out", str(w / "dep.json")]),
            ("apply lc-dep", ["apply", "--model", str(w / "dep.json"), "--in", raw, "--out", dep]),
            ("eval raw conf+xy", ["eval", "--in", raw, "--features", "conf+xy"]),
            ("eval lc conf+xy", ["eval", "--in", lc, "--features", "conf+xy"]),
            ("eval lc-dep conf+xy", ["eval", "--in", dep, "--features", "conf+xy"]),
            ("heatmap lc", ["heatmap", "--in", lc, "--features", "conf+xy", "--axes", "cx,cy",
                            "--out", str(w / "grid.csv")]),
        ]

    def _run(self, argv: list[str]) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.call(f"cli.{argv[0]}", self.cli.main, argv)
        return {"code": code, "stdout": out.getvalue()}

    def steps(self) -> list[tuple[str, object]]:
        return [(op, functools.partial(self._run, argv)) for op, argv in self._commands()]

    def check(self, results: dict, inject_fault: bool) -> Ops:
        ops, w, n = Ops(), self.work, self.n
        if inject_fault:
            # Drop the last calibrated record, as a truncated write would.
            path = w / "cal_lc.jsonl"
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(lines[:-1]))
        dece = {}
        for op, res in results.items():
            ops.expect(op, res["code"] == 0, f"exit code {res['code']}")
            if op.startswith("eval"):
                found = _DECE.search(res["stdout"])
                ops.expect(op, found is not None, f"no D-ECE in {res['stdout']!r}")
                if found:
                    dece[op] = float(found.group(1))
        for op, name in (("synth", "matched.jsonl"), ("apply lc", "cal_lc.jsonl"),
                         ("apply lc-dep", "cal_dep.jsonl")):
            lines = _count_lines(w / name)
            ops.expect(op, lines == n, f"{name} holds {lines} records, expected {n}")
        for op, name in (("fit lc conf", "lc.json"), ("fit lc-dep conf+xy", "dep.json")):
            try:
                meta = json.loads((w / name).read_text())["fit_metadata"]
                ops.expect(op, meta["n_samples"] == n, f"{name} fitted on {meta['n_samples']}")
            except (OSError, ValueError, KeyError) as exc:
                ops.expect(op, False, f"{name}: {exc!r}")
        if len(dece) == 5:
            raw_xy, lc_xy = dece["eval raw conf+xy"], dece["eval lc conf+xy"]
            dep_xy = dece["eval lc-dep conf+xy"]
            ops.expect("eval lc-dep conf+xy", dep_xy < lc_xy < raw_xy,
                       f"conf+xy D-ECE ordering broken: lc-dep {dep_xy}, lc {lc_xy}, raw {raw_xy}")
            ops.expect("eval lc conf", dece["eval lc conf"] < dece["eval raw conf"],
                       f"lc conf ECE {dece['eval lc conf']} not below raw {dece['eval raw conf']}")
            ops.expect("heatmap lc", *self._check_heatmap(lc_xy))
        return ops

    def _check_heatmap(self, lc_xy_pct: float) -> tuple[bool, str]:
        """The count-weighted mean of the cells reproduces the 3-D D-ECE."""
        try:
            rows = (self.work / "grid.csv").read_text().splitlines()[1:]
        except OSError as exc:
            return False, repr(exc)
        weighted = total = 0
        for row in rows:
            _, _, contrib, count, _, _ = row.split(",")
            if int(count):
                weighted += float(contrib) * int(count)
                total += int(count)
        if not 0 < total <= self.n:
            return False, f"heatmap covers {total} samples of {self.n}"
        value = 100.0 * weighted / total
        return abs(value - lc_xy_pct) <= 6e-4, f"heatmap mean {value:.5f}% vs eval {lc_xy_pct}%"


# ---------------------------------------------------------------------------
# protocol_grid: the paper's table through harness.run_protocol


class ProtocolGrid:
    """The grid on one fixed draw of the scenario, whatever ``--seed`` says.

    The dependent maps' BFGS iteration counts, and so the run time, change
    by up to 2x from one draw or split to the next; a seeded draw would make
    ``wall_s`` measure the draw rather than the program.

    Each cell (method, feature set) is its own ``run_protocol`` call, so
    that the reference kernel runs between cells. Splits are seeded by
    (seed, repetition) alone, so every call sees the same splits and the
    cells equal those of one call over the whole grid.
    """

    name = "protocol_grid"
    data_seed = 1

    def __init__(self, detcal, work: Path, seed: int, sizes: dict, call):
        self.detcal, self.call = detcal, call
        self.input = work.parent / "protocol_input.jsonl"
        self.seed, self.n, self.reps = self.data_seed, sizes["n"], sizes["reps"]

    def prepare(self) -> None:
        code = self.detcal.cli.main(["synth", "--scenario", SCENARIO, "--n", str(self.n),
                                     "--seed", str(self.seed), "--out", str(self.input)])
        if code != 0:
            raise RuntimeError(f"detcal synth exited with {code}")

    def setup(self) -> None:
        self.samples = self.detcal.read_matched_samples(self.input)

    def _run(self, method: str, fs: str) -> str:
        cfg = self.detcal.ProtocolConfig(methods=(method,), feature_sets=(fs,),
                                         repetitions=self.reps, seed=self.seed)
        table = self.call("harness.run_protocol", self.detcal.harness.run_protocol,
                          self.samples, cfg, threads=1)
        return self.detcal.render_table(table, "json")

    def steps(self) -> list[tuple[str, object]]:
        return [(f"{method} {fs}", functools.partial(self._run, method, fs))
                for method in METHODS for fs in FEATURE_SETS]

    def check(self, results: dict, inject_fault: bool) -> Ops:
        ops = Ops()
        docs = {}
        for op, text in results.items():
            try:
                docs[op] = json.loads(text)
            except ValueError as exc:
                ops.expect(op, False, f"table JSON does not parse: {exc}")
        if inject_fault and docs:
            next(iter(docs.values()))["cells"][0]["repetitions_ok"] -= 1
        cells = []
        for op, doc in docs.items():
            ops.expect(op, doc.get("repetitions") == self.reps
                       and doc.get("columns") == [op.split()[1]], "table header mismatch")
            for fs, cell in doc.get("baseline", {}).items():
                ops.expect(f"baseline {fs}",
                           cell["repetitions_ok"] == self.reps and not cell["errors"],
                           f"baseline {fs}: {cell['repetitions_ok']} of {self.reps} repetitions")
            cells += doc.get("cells", [])
        means = {}
        for cell in cells:
            op = f"{cell['method']} {cell['feature_set']}"
            ok = cell["repetitions_ok"] == self.reps and cell["mean_dece_pct"] is not None
            ops.expect(op, ok and not cell["errors"],
                       f"{op}: {cell['repetitions_ok']} of {self.reps} repetitions, "
                       f"errors {cell['errors']}")
            means[(cell["method"], cell["feature_set"])] = cell["mean_dece_pct"]
        expected = len(METHODS) * len(FEATURE_SETS)
        ops.expect("render", len(means) == expected, f"{len(means)} cells, expected {expected}")
        lc = means.get(("lc", "conf+xy"))
        for dep in ("lc-dep", "bc-dep"):
            value = means.get((dep, "conf+xy"))
            ops.expect(f"{dep} conf+xy", None not in (lc, value) and value < lc,
                       f"{dep} conf+xy D-ECE {value} does not beat lc {lc}")
        return ops


# ---------------------------------------------------------------------------
# coco_match: COCO JSON through the detections loader and the greedy matcher


def make_coco(seed: int, shard: int, sizes: dict) -> tuple[dict, list[dict]]:
    """A COCO annotation document and results array with jittered true positives."""
    rng = np.random.default_rng([seed, shard, 2])
    n_img, n_det = sizes["images"], sizes["detections_per_image"]
    n_gt, n_cat = sizes["gt_per_image"], sizes["categories"]
    images, annotations, results = [], [], []

    def random_boxes(count, width, height):
        w = rng.uniform(0.05, 0.4, count) * width
        h = rng.uniform(0.05, 0.4, count) * height
        x = rng.uniform(0.0, 1.0, count) * (width - w)
        y = rng.uniform(0.0, 1.0, count) * (height - h)
        return np.stack([x, y, w, h], axis=1)

    for image_id in range(1, n_img + 1):
        width, height = (int(v) for v in rng.integers(400, 1001, 2))
        images.append({"id": image_id, "width": width, "height": height})
        gt_boxes = random_boxes(n_gt, width, height)
        gt_cats = rng.integers(1, n_cat + 1, n_gt)
        crowd = rng.random(n_gt) < 0.03
        for box, cat, is_crowd in zip(gt_boxes, gt_cats, crowd):
            annotations.append({"id": len(annotations) + 1, "image_id": image_id,
                                "category_id": int(cat), "bbox": [float(v) for v in box],
                                "area": float(box[2] * box[3]), "iscrowd": int(is_crowd)})
        boxes = random_boxes(n_det, width, height)
        cats = rng.integers(1, n_cat + 1, n_det)
        scores = rng.beta(2.0, 5.0, n_det)
        # About a third of the detections jitter a ground-truth box.
        true_pos = np.flatnonzero(rng.random(n_det) < 0.35)
        src = rng.integers(0, n_gt, true_pos.size)
        for i, j in zip(true_pos, src):
            x, y, w, h = gt_boxes[j]
            w2 = min(w * np.exp(rng.normal(0.0, 0.12)), float(width))
            h2 = min(h * np.exp(rng.normal(0.0, 0.12)), float(height))
            x2 = min(max(x + rng.normal(0.0, 0.08) * w, 0.0), width - w2)
            y2 = min(max(y + rng.normal(0.0, 0.08) * h, 0.0), height - h2)
            boxes[i] = (x2, y2, w2, h2)
            cats[i] = gt_cats[j] if rng.random() < 0.9 else cats[i]
            scores[i] = rng.beta(5.0, 2.0)
        for box, cat, score in zip(boxes, cats, scores):
            results.append({"image_id": image_id, "category_id": int(cat),
                            "bbox": [float(v) for v in box], "score": float(score)})
    categories = [{"id": c, "name": f"class{c}"} for c in range(1, n_cat + 1)]
    return {"images": images, "annotations": annotations, "categories": categories}, results


def _relative(bbox, width: int, height: int) -> tuple[float, float, float, float]:
    """COCO pixel box to relative center format, with the loader's arithmetic."""
    x, y, w, h = (float(v) for v in bbox)
    x2, y2 = min(x + w, float(width)), min(y + h, float(height))
    x, y = max(x, 0.0), max(y, 0.0)
    return ((x + x2) / (2.0 * width), (y + y2) / (2.0 * height),
            (x2 - x) / width, (y2 - y) / height)


def _iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = a[0] - 0.5 * a[2], a[1] - 0.5 * a[3], a[0] + 0.5 * a[2], a[1] + 0.5 * a[3]
    bx1, by1, bx2, by2 = b[0] - 0.5 * b[2], b[1] - 0.5 * b[3], b[0] + 0.5 * b[2], b[1] + 0.5 * b[3]
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def reference_match(dets: list[tuple[int, float, tuple]], gts: list[tuple[int, tuple]],
                    threshold: float) -> dict[int, int | None]:
    """Greedy matching of one group: detection index -> claimed annotation index."""
    claimed: set[int] = set()
    out: dict[int, int | None] = {}
    for i, _, box in sorted(dets, key=lambda d: -d[1]):
        best_iou, best_j = 0.0, None
        for j, gt_box in gts:
            if j in claimed:
                continue
            v = _iou(box, gt_box)
            if v >= threshold and v > best_iou:
                best_iou, best_j = v, j
        if best_j is not None:
            claimed.add(best_j)
        out[i] = best_j
    return out


class CocoMatch:
    """``detcal match`` on several COCO datasets of the same shape, one per step.

    Shards keep each step short enough for the reference kernel around it
    to see the host speed the step ran at; the group shape, and so the
    matcher's work per group, is that of one large dataset.
    """

    name = "coco_match"
    iou = 0.5

    def __init__(self, detcal, work: Path, seed: int, sizes: dict, call):
        self.cli, self.call = detcal.cli, call
        self.work, self.seed, self.sizes = work, seed, sizes
        self.shards = range(sizes["shards"])

    def _annotations(self, shard: int) -> Path:
        return self.work.parent / f"instances-{shard}.json"

    def _detections(self, shard: int) -> Path:
        return self.work.parent / f"results-{shard}.json"

    def _output(self, shard: int) -> Path:
        return self.work / f"matched-{shard}.jsonl"

    def prepare(self) -> None:
        for shard in self.shards:
            doc, results = make_coco(self.seed, shard, self.sizes)
            self._annotations(shard).write_text(json.dumps(doc))
            self._detections(shard).write_text(json.dumps(results))

    def setup(self) -> None:
        pass

    def _run(self, shard: int) -> int:
        argv = ["match", "--detections", str(self._detections(shard)), "--annotations",
                str(self._annotations(shard)), "--format", "coco", "--iou", str(self.iou),
                "--out", str(self._output(shard))]
        return self.call("cli.match", self.cli.main, argv)

    def steps(self) -> list[tuple[str, object]]:
        return [(f"match {shard}", functools.partial(self._run, shard)) for shard in self.shards]

    def check(self, results: dict, inject_fault: bool) -> Ops:
        ops = Ops()
        for shard in self.shards:
            self._check_shard(ops, shard, results[f"match {shard}"], inject_fault and shard == 0)
        return ops

    def _check_shard(self, ops: Ops, shard: int, code: int, inject_fault: bool) -> None:
        op = f"match {shard}"
        ops.expect(op, code == 0, f"exit code {code}")
        try:
            with open(self._output(shard), encoding="utf-8") as fh:
                out = [json.loads(line) for line in fh]
        except (OSError, ValueError) as exc:
            ops.expect(op, False, f"output unreadable: {exc!r}")
            return
        doc = json.loads(self._annotations(shard).read_text())
        dets = json.loads(self._detections(shard).read_text())
        groups = self._checked_groups(dets, shard)
        if inject_fault and groups:
            rec = out[groups[0][0]]
            rec["matched"] = 1 - rec["matched"]
            rec["gt_index"] = -1 if rec["matched"] else None
        ops.expect(op, len(out) == len(dets), f"{len(out)} records for {len(dets)} detections")
        in_order = all(o["image_id"] == d["image_id"] and o["category_id"] == d["category_id"]
                       and o["score"] == d["score"] for o, d in zip(out, dets))
        ops.expect(op, in_order, "output records are not in input order")
        claimed = [o["gt_index"] for o in out if o["matched"]]
        ops.expect(op, len(claimed) == len(set(claimed)), "a ground-truth index is claimed twice")
        low = [o["iou"] for o in out if o["matched"] and o["iou"] < self.iou]
        ops.expect(op, not low, f"{len(low)} matches below IoU {self.iou}")
        if len(out) != len(dets):
            return
        sizes = {img["id"]: (img["width"], img["height"]) for img in doc["images"]}
        for indices in groups:
            image_id, cat = dets[indices[0]]["image_id"], dets[indices[0]]["category_id"]
            gts = [(j, _relative(a["bbox"], *sizes[image_id]))
                   for j, a in enumerate(doc["annotations"])
                   if a["image_id"] == image_id and a["category_id"] == cat and not a["iscrowd"]]
            group = [(i, dets[i]["score"], _relative(dets[i]["bbox"], *sizes[image_id]))
                     for i in indices]
            expected = reference_match(group, gts, self.iou)
            got = {i: (out[i]["gt_index"] if out[i]["matched"] else None) for i in indices}
            name = f"group {shard}/{image_id}/{cat}"
            ops.expect(name, got == expected, f"{name} labels differ from the greedy reference")

    def _checked_groups(self, dets: list[dict], shard: int) -> list[list[int]]:
        """Detection indices of a seeded subset of (image, category) groups."""
        by_group: dict[tuple, list[int]] = {}
        for i, d in enumerate(dets):
            by_group.setdefault((d["image_id"], d["category_id"]), []).append(i)
        keys = sorted(by_group)
        rng = np.random.default_rng([self.seed, shard, 3])
        take = min(self.sizes["checked_groups"], len(keys))
        return [by_group[keys[k]] for k in sorted(rng.choice(len(keys), take, replace=False))]


WORKLOADS = {cls.name: cls for cls in (CliChain, ProtocolGrid, CocoMatch)}
