"""The benchmark's span tracer must find every detcal attribute it wraps.

``perfbench/spans.py`` replaces functions such as ``harness.labels`` or
``cli.write_matched_samples`` in their callers' namespaces; a refactor that
drops one makes traced benchmark runs crash with ``AttributeError``. The
tracer also counts records with ``len()`` on what the wrapped readers
return and writers take, so those counts are checked on a small CLI chain.
Solver work is counted through ``calibrators.minimize``, which every
parametric fit calls, so the Newton fits (lc-dep, lc, bc) must show nonzero
counts. The
matching counts read ``image_id``, ``category_id``, ``crowd_flag`` and
``matched`` on the records that ``load_dataset`` and ``match_detections``
return, so they are checked on a COCO pair.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from detcal import calibrators, cli, features, harness, metrics, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (calibrators, cli, features, harness, metrics, synth)


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer("t")


def test_tracer_installs_and_uninstalls():
    before = _namespaces()
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert _namespaces() == before


def _namespaces() -> list[dict[str, int]]:
    return [{name: id(value) for name, value in vars(m).items()} for m in MODULES]


def _records(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def test_tracer_counts_records_read_and_written(tmp_path):
    raw, cal, model = tmp_path / "raw.jsonl", tmp_path / "cal.jsonl", tmp_path / "lc.json"
    commands = [
        ["synth", "--scenario", "fig3_boundary_decay", "--n", "300", "--seed", "1", "--out", raw],
        ["fit", "--in", raw, "--method", "lc", "--features", "conf", "--out", model],
        ["apply", "--model", model, "--in", raw, "--out", cal],
        ["eval", "--in", raw, "--features", "conf", "--bins", "5", "--min-samples", "0"],
        ["eval", "--in", cal, "--features", "conf", "--bins", "5", "--min-samples", "0"],
        ["heatmap", "--in", cal, "--features", "conf+xy", "--bins", "3", "--axes", "cx,cy",
         "--out", tmp_path / "grid.csv"],
    ]
    tracer = _tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    read = sum(_records(Path(argv[argv.index("--in") + 1])) for argv in commands if "--in" in argv)
    written = _records(raw) + _records(cal)
    assert (read, written) == (1500, 600)
    counts = tracer.layer_metrics()
    assert counts["matching.read_matched_samples.records"] == read
    assert counts["matching.write_matched_samples.records"] == written


def test_tracer_counts_lc_dep_solver_work(tmp_path):
    """Named for lc-dep, its first case; lc and bc take Newton steps through the same call."""
    raw = tmp_path / "raw.jsonl"
    assert cli.main(["synth", "--scenario", "fig3_boundary_decay", "--n", "600", "--seed", "2",
                     "--out", str(raw)]) == 0
    tracer = _tracer()
    tracer.install()
    try:
        for method in ("lc-dep", "lc", "bc"):
            assert cli.main(["fit", "--in", str(raw), "--method", method, "--features", "conf+xy",
                             "--out", str(tmp_path / f"{method}.json")]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.layer_metrics()
    for method in ("lc-dep", "lc", "bc"):
        assert counts[f"calibrators.fit.{method}.conf_xy.iterations"] > 0
        assert counts[f"calibrators.fit.{method}.conf_xy.obj_evals"] > 0


def _coco_pair(tmp_path: Path) -> tuple[Path, Path, dict, list]:
    """A COCO annotation document and results array; about half the detections repeat an object's box."""
    rng = np.random.default_rng(4)
    images, annotations, results = [], [], []
    for image_id in range(1, 5):
        images.append({"id": image_id, "width": 200, "height": 100})
        for _ in range(6):
            x, y = rng.uniform(0.0, 150.0), rng.uniform(0.0, 60.0)
            bbox = [x, y, rng.uniform(10.0, 50.0), rng.uniform(10.0, 40.0)]
            category_id = int(rng.integers(1, 3))
            annotations.append({"image_id": image_id, "category_id": category_id, "bbox": bbox,
                                "iscrowd": int(rng.random() < 0.2)})
            for _ in range(2):
                box = bbox if rng.random() < 0.5 else [x + rng.uniform(-5.0, 5.0), y, 10.0, 10.0]
                results.append({"image_id": image_id, "category_id": category_id,
                                "bbox": [min(max(v, 0.0), 150.0) for v in box],
                                "score": float(rng.random())})
    doc = {"images": images, "annotations": annotations}
    ann_path, det_path = tmp_path / "instances.json", tmp_path / "results.json"
    ann_path.write_text(json.dumps(doc))
    det_path.write_text(json.dumps(results))
    return det_path, ann_path, doc, results


def test_tracer_counts_coco_records_and_pairs(tmp_path):
    det_path, ann_path, doc, results = _coco_pair(tmp_path)
    out = tmp_path / "matched.jsonl"
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.main(["match", "--detections", str(det_path), "--annotations", str(ann_path),
                         "--format", "coco", "--iou", "0.5", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    objects = Counter((a["image_id"], a["category_id"]) for a in doc["annotations"] if not a["iscrowd"])
    pairs = sum(objects[(r["image_id"], r["category_id"])] for r in results)
    matched = [json.loads(line)["matched"] for line in out.read_text().splitlines()]
    assert len(matched) == len(results) and 0 < sum(matched) < len(results) and pairs > 0
    counts = tracer.layer_metrics()
    assert counts["detections.load_dataset.records"] == len(results) + len(doc["annotations"])
    assert counts["matching.match_detections.pairs"] == pairs
    assert counts["matching.match_detections.matched_frac"] == sum(matched) / len(results)
