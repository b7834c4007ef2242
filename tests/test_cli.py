import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import detcal
from detcal import calibrators
from detcal.cli import main
from detcal.detections import BoxGeometry, Detection, GroundTruthObject, ImageRecord
from detcal.matching import MatchedSample, iou, read_matched_samples, write_matched_samples
from detcal.synth import generate, make_scenario
from oracles import greedy_match, reference_box_from_absolute, reference_read_matched_samples


def run(args):
    return main([str(a) for a in args])


def run_process(args):
    """Run the CLI in a fresh interpreter, so its log lines reach the real standard error."""
    src = str(Path(detcal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "detcal.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def write_native(det_path, ann_path, detections, truth, images):
    """A native detection file and annotation file, one JSON object per line."""
    det_path.write_text("".join(json.dumps(asdict(d)) + "\n" for d in detections))
    lines = [{"image": asdict(image)} for image in images] + [asdict(gt) for gt in truth]
    ann_path.write_text("".join(json.dumps(r) + "\n" for r in lines))


def synth_file(tmp_path, name="matched.jsonl", scenario="fig3_boundary_decay", n=4000, seed=0):
    path = tmp_path / name
    assert run(["synth", "--scenario", scenario, "--n", n, "--seed", seed, "--out", path]) == 0
    return path


class TestVerbosityPerCall:
    """Each call of ``main`` in a process logs at the level of its own ``-v`` flags."""

    @pytest.mark.parametrize("flags", [([], ["-v"]), (["-v"], [])])
    def test_two_calls_in_one_process(self, tmp_path, flags):
        path = synth_file(tmp_path, n=50)
        args = ["eval", "--in", str(path), "--features", "conf", "--bins", "5", "--min-samples", "0"]
        code = f"from detcal.cli import main\nfor flags in {flags!r}:\n    assert main([*flags, *{args!r}]) == 0"
        src = str(Path(detcal.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("INFO ") == 1 and "bins retained" in done.stderr
        assert done.stdout.count("D-ECE = ") == 2


class TestOneParserPerProcess:
    """``main`` builds its parser once per process, and calls in one process act as calls in fresh ones."""

    @pytest.fixture
    def builds(self, monkeypatch):
        detcal.cli._parser.cache_clear()
        build = mock.Mock(wraps=detcal.cli.build_parser)
        monkeypatch.setattr(detcal.cli, "build_parser", build)
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at one width here and in a child
        yield build
        detcal.cli._parser.cache_clear()

    @staticmethod
    def compare(tmp_path, capsys, calls):
        """Run ``calls`` in this process and each in a process of its own, in two directories; compare the
        exit codes, stdout, usage errors' stderr and every file written."""
        samples = generate(make_scenario("uniform_overconfident", 2000, seed=3))
        samples = replace(samples, category_id=1 + np.arange(len(samples)) % 2)
        outcomes = {}
        for side in ("one", "many"):
            (tmp_path / side).mkdir()
            write_matched_samples(samples, tmp_path / side / "mixed.jsonl")
            outcomes[side] = []
            for argv in calls:
                argv = [str(a).format(d=tmp_path / side) for a in argv]
                if side == "one":
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    out, err = capsys.readouterr()
                else:
                    done = run_process(argv)
                    code, out, err = done.returncode, done.stdout, done.stderr
                outcomes[side].append((code, out, err if code == 1 else None))
        assert outcomes["one"] == outcomes["many"]
        files = {side: {p.name: p.read_bytes() for p in (tmp_path / side).glob("[!.]*")} for side in outcomes}
        assert files["one"] == files["many"] and len(files["one"]) > 1
        return [code for code, _, _ in outcomes["one"]]

    def test_calls_with_other_flags(self, tmp_path, capsys, builds):
        mixed = "{d}/mixed.jsonl"
        calls = [
            ["-v", "fit", "--in", mixed, "--method", "hb", "--features", "conf+xy", "--bins", "4,3,3",
             "--category", 1, "--out", "{d}/a.json"],
            ["fit", "--in", mixed, "--method", "hb", "--features", "conf", "--bins", 6, "--pooled",
             "--out", "{d}/b.json"],
            ["-vv", "eval", "--in", mixed, "--features", "conf", "--bins", 12],
            ["eval", "--in", mixed, "--features", "conf+xy"],
            ["fit", "--in", mixed, "--method", "lc", "--features", "conf", "--category", 2, "--out", "{d}/c.json"],
            ["fit", "--in", mixed, "--method", "lc", "--features", "conf", "--out", "{d}/d.json"],
        ]
        assert self.compare(tmp_path, capsys, calls) == [0, 0, 0, 0, 0, 2]
        assert builds.call_count == 1

    def test_usage_error_then_a_valid_call(self, tmp_path, capsys, builds):
        mixed = "{d}/mixed.jsonl"
        calls = [
            ["eval", "--in", mixed, "--bins", 5],
            ["eval", "--in", mixed, "--features", "conf", "--bins", 5],
            ["-v", "fit", "--in", mixed, "--method", "hb", "--features", "conf", "--pooled", "--frobnicate"],
            ["fit", "--in", mixed, "--method", "hb", "--features", "conf", "--pooled", "--out", "{d}/a.json"],
        ]
        assert self.compare(tmp_path, capsys, calls) == [1, 0, 1, 0]
        assert builds.call_count == 1


class TestDispatch:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["eval", "--features", "conf"])
        assert excinfo.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_fit_takes_no_seed(self, tmp_path, capsys):
        """Fits use no random numbers, so ``fit`` has no ``--seed``."""
        matched = synth_file(tmp_path, n=300)
        with pytest.raises(SystemExit) as excinfo:
            run(["fit", "--in", matched, "--method", "lc", "--features", "conf", "--seed", 3,
                 "--out", tmp_path / "m.json"])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_missing_input_file_exits_two(self, tmp_path):
        assert run(["eval", "--in", tmp_path / "nope.jsonl", "--features", "conf"]) == 2

    def test_numerical_failure_exits_three(self, tmp_path):
        matched = synth_file(tmp_path, n=2000)
        code = run(
            ["fit", "--in", matched, "--method", "lc", "--features", "conf",
             "--max-iter", 1, "--out", tmp_path / "m.json"]
        )
        assert code == 3


class TestSynthCommand:
    def test_creates_matched_schema(self, tmp_path):
        path = synth_file(tmp_path, n=50)
        samples = read_matched_samples(path)
        assert len(samples) == 50

    def test_deterministic_bytes(self, tmp_path):
        a = synth_file(tmp_path, "a.jsonl", n=200, seed=9)
        b = synth_file(tmp_path, "b.jsonl", n=200, seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_scenario_exits_one(self, tmp_path):
        assert run(["synth", "--scenario", "nope", "--n", 10, "--out", tmp_path / "x.jsonl"]) == 1


class TestSeedsAndSizes:
    """A seed below zero or a draw numpy cannot hold exits 1 with one ERROR line, not a traceback."""

    def test_synth_negative_seed(self, tmp_path):
        out = tmp_path / "t.jsonl"
        proc = run_process(["synth", "--scenario", "fig3_boundary_decay", "--n", 5, "--seed", -1, "--out", out])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["ERROR detcal: seed must be an integer >= 0, got -1"]
        assert not out.exists()

    def test_protocol_negative_seed(self, tmp_path):
        matched = synth_file(tmp_path, n=500)
        proc = run_process(["protocol", "--in", matched, "--methods", "hb", "--features", "conf",
                            "--reps", 1, "--seed", -1])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["ERROR detcal: seed must be an integer >= 0, got -1"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("n, message", [
        (2**50, "cannot allocate a draw of 1125899906842624 samples"),
        (99999999999999999999, "sample count 99999999999999999999 exceeds"),
    ], ids=["unallocatable", "past-index-range"])
    def test_synth_oversized_draw(self, tmp_path, n, message):
        out = tmp_path / "t.jsonl"
        proc = run_process(["synth", "--scenario", "fig3_boundary_decay", "--n", n, "--out", out])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"ERROR detcal: {message}")
        assert not out.exists()


class TestEmptyInput:
    """An empty or all-blank matched file exits 2, naming the file, from every command that reads it."""

    @pytest.mark.parametrize("content", ["", "\n  \n\t\n"])
    def test_fit_names_the_file(self, tmp_path, caplog, content):
        path = tmp_path / "empty.jsonl"
        path.write_text(content)
        assert run(["fit", "--in", path, "--method", "lc", "--features", "conf",
                    "--out", tmp_path / "m.json"]) == 2
        assert "empty.jsonl: no samples to fit" in caplog.text

    @pytest.mark.parametrize("argv,message", [
        (["fit", "--method", "hb", "--features", "conf", "--pooled", "--out", "m.json"],
         "no samples to fit"),
        (["eval", "--features", "conf"], "cannot bin an empty sample list"),
        (["heatmap", "--features", "conf+xy", "--axes", "cx,cy"], "cannot bin an empty sample list"),
        (["protocol", "--reps", "1"], "protocol needs a nonempty sample list"),
    ], ids=["fit-pooled", "eval", "heatmap", "protocol"])
    def test_other_commands_exit_two(self, tmp_path, caplog, argv, message):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        assert run(["--out-dir", tmp_path, argv[0], "--in", path, *argv[1:]]) == 2
        assert f"empty.jsonl: {message}" in caplog.text

    @pytest.mark.parametrize("argv", [
        ["eval", "--features", "conf", "--bins", "200"],
        ["heatmap", "--features", "conf+xy", "--bins", "200,200,200", "--axes", "cx,cy"],
    ], ids=["eval", "heatmap"])
    def test_bins_below_min_samples_name_the_file(self, tmp_path, caplog, argv):
        path = synth_file(tmp_path, "sparse.jsonl", n=300, seed=1)
        assert run(["--out-dir", tmp_path, argv[0], "--in", path, *argv[1:],
                    "--min-samples", 50]) == 2
        assert "sparse.jsonl: all " in caplog.text
        assert "occupied bins fall below min_samples=50" in caplog.text

    def test_missing_category_names_the_file(self, tmp_path, caplog):
        path = tmp_path / "category_1.jsonl"
        write_matched_samples(generate(make_scenario("fig3_boundary_decay", 200, seed=1)), path)
        assert run(["fit", "--in", path, "--method", "lc", "--features", "conf", "--category", 5,
                    "--out", tmp_path / "m.json"]) == 2
        assert "category_1.jsonl: no samples with category 5" in caplog.text


class TestMatchCommand:
    def test_end_to_end(self, tmp_path):
        box = BoxGeometry(0.5, 0.5, 0.2, 0.2)
        off_box = BoxGeometry(0.2, 0.2, 0.1, 0.1)
        detections = [
            Detection(0, 1, 0.9, box),
            Detection(0, 1, 0.8, off_box),
        ]
        truth = [GroundTruthObject(0, 1, box)]
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        write_native(det_path, ann_path, detections, truth, [ImageRecord(0, 100, 100)])
        out = tmp_path / "matched.jsonl"
        code = run(
            ["match", "--detections", det_path, "--annotations", ann_path, "--iou", 0.5, "--out", out]
        )
        assert code == 0
        assert read_matched_samples(out).matched.tolist() == [1, 0]
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert set(recs[0]) == {"image_id", "category_id", "score", "box", "matched", "iou", "gt_index"}

    @pytest.mark.parametrize("wrapped", [False, True], ids=["results-array", "results-object"])
    def test_auto_format_writes_the_coco_bytes(self, tmp_path, wrapped):
        rng = np.random.default_rng(4)
        images = [{"id": 1, "width": 640, "height": 480}, {"id": "b", "width": 300, "height": 500}]
        annotations, results = [], []
        for image in images:
            size = np.array([image["width"], image["height"]] * 2, np.float64)
            for box in rng.uniform(0.05, 0.45, (6, 4)) * size:
                annotations.append({"image_id": image["id"], "category_id": 1, "bbox": box.tolist(),
                                    "iscrowd": int(rng.random() < 0.2)})
                jitter = box + rng.normal(0.0, 4.0, 4) * [1, 1, 0, 0]
                results.append({"image_id": image["id"], "category_id": 1, "bbox": jitter.tolist(),
                                "score": float(rng.random())})
        ann_path, det_path = tmp_path / "ann.json", tmp_path / "det.json"
        ann_path.write_text(json.dumps({"images": images, "annotations": annotations,
                                        "categories": [{"id": 1, "name": "thing"}]}))
        det_path.write_text(json.dumps({"annotations": results} if wrapped else results))
        outputs = []
        for fmt in ("auto", "coco"):
            out = tmp_path / f"matched-{fmt}.jsonl"
            assert run(["match", "--detections", det_path, "--annotations", ann_path, "--format", fmt,
                        "--iou", 0.5, "--out", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == len(results)
        assert b'"matched": 1' in outputs[0]

    @staticmethod
    def _coco_pair(seed):
        """A COCO annotation document and results array with str and int image ids, crowd
        boxes, boxes clamped at the left or top edge, and tied scores."""
        rng = np.random.default_rng(seed)
        images = [{"id": 1, "width": 640, "height": 480}, {"id": "b", "width": 300, "height": 500}]
        annotations, results = [], []
        for image in images:
            width, height = image["width"], image["height"]
            for _ in range(10):
                w, h = rng.uniform(0.1, 0.5) * width, rng.uniform(0.1, 0.5) * height
                # One box in four overhangs an edge by at most 1%, within the clamping tolerance.
                x = rng.uniform(0.0, width - w) if rng.random() < 0.75 else -0.01 * width * rng.random()
                y = rng.uniform(0.0, height - h) if rng.random() < 0.75 else -0.01 * height * rng.random()
                category = int(rng.integers(1, 3))
                annotations.append({"image_id": image["id"], "category_id": category, "bbox": [x, y, w, h],
                                    "iscrowd": int(rng.random() < 0.25)})
                for _ in range(int(rng.integers(1, 4))):
                    dx, dy = rng.normal(0.0, 0.1, 2) * (w, h)
                    results.append({
                        "image_id": image["id"],
                        "category_id": category if rng.random() < 0.8 else 3 - category,
                        "bbox": [float(np.clip(x + dx, -0.01 * width, width - w)),
                                 float(np.clip(y + dy, -0.01 * height, height - h)), w, h],
                        "score": float(rng.choice([0.25, 0.5, 0.75, 1.0])),
                    })
        return images, annotations, results

    @pytest.mark.parametrize("include_crowd", [False, True], ids=["no-crowd", "crowd"])
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.75])
    def test_output_is_the_greedy_reference_byte_for_byte(self, tmp_path, threshold, include_crowd):
        images, annotations, results = self._coco_pair(seed=19)
        ann_path, det_path, out = tmp_path / "ann.json", tmp_path / "det.json", tmp_path / "m.jsonl"
        ann_path.write_text(json.dumps({"images": images, "annotations": annotations}))
        det_path.write_text(json.dumps(results))
        assert run(["match", "--detections", det_path, "--annotations", ann_path, "--iou", threshold,
                    "--out", out] + ["--include-crowd"] * include_crowd) == 0

        sizes = {image["id"]: (image["width"], image["height"]) for image in images}
        detections = [Detection(r["image_id"], r["category_id"], r["score"],
                                reference_box_from_absolute(r["bbox"], *sizes[r["image_id"]])) for r in results]
        truth = [GroundTruthObject(a["image_id"], a["category_id"],
                                   reference_box_from_absolute(a["bbox"], *sizes[a["image_id"]]), a["iscrowd"])
                 for a in annotations]
        labels = greedy_match(detections, truth, threshold, iou, exclude_crowd=not include_crowd)
        expected = [
            json.dumps({"image_id": d.image_id, "category_id": d.category_id, "score": d.score,
                        "box": {"cx": d.box.cx, "cy": d.box.cy, "w": d.box.w, "h": d.box.h},
                        "matched": matched, "iou": value, "gt_index": j})
            for d, (matched, value, j) in zip(detections, labels)
        ]
        assert out.read_text().splitlines() == expected
        assert 0 < sum(matched for matched, _, _ in labels) < len(labels)

    @pytest.mark.parametrize("ann_name", ["ann.json", "ann.jsonl"], ids=["coco", "native"])
    def test_image_side_past_a_float_exits_two(self, tmp_path, caplog, ann_name):
        """One image 10**400 pixels wide with one object on it, matched against COCO detections."""
        det_path, ann_path = tmp_path / "det.json", tmp_path / ann_name
        det_path.write_text("[]")
        if ann_name == "ann.json":
            ann_path.write_text(json.dumps({
                "images": [{"id": 1, "width": 10**400, "height": 50}],
                "annotations": [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]}],
                "categories": [{"id": 1, "name": "car"}],
            }))
            where = r"ann\.json: invalid image or category record: "
        else:
            ann_path.write_text("\n".join(map(json.dumps, [
                {"image": {"image_id": 1, "width_px": 10**400, "height_px": 50}},
                {"image_id": 1, "category_id": 1, "box": {"cx": 0.5, "cy": 0.5, "w": 0.2, "h": 0.2}},
            ])) + "\n")
            where = r"ann\.jsonl:1: "
        assert run(["match", "--detections", det_path, "--annotations", ann_path, "--iou", 0.5,
                    "--out", tmp_path / "m.jsonl"]) == 2
        assert re.search(where + "image 1 has a side of more pixels than a float holds", caplog.text)

    def test_bad_iou_exits_one(self, tmp_path):
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        write_native(det_path, ann_path, [], [], [])
        assert run(
            ["match", "--detections", det_path, "--annotations", ann_path, "--iou", 0, "--out", tmp_path / "m.jsonl"]
        ) == 1


class TestFitApplyEval:
    def test_happy_path(self, tmp_path, capsys):
        matched = synth_file(tmp_path, n=6000)
        input_bytes = matched.read_bytes()
        model = tmp_path / "model.json"
        assert run(["fit", "--in", matched, "--method", "lc", "--features", "conf", "--out", model]) == 0
        assert json.loads(model.read_text())["method"] == "logistic_indep"
        calibrated = tmp_path / "cal.jsonl"
        assert run(["apply", "--model", model, "--in", matched, "--out", calibrated]) == 0
        recs = [json.loads(line) for line in calibrated.read_text().splitlines()]
        assert all("raw_score" in r for r in recs)
        assert matched.read_bytes() == input_bytes  # inputs are never mutated

        assert run(["eval", "--in", matched, "--features", "conf", "--bins", 20]) == 0
        before = float(re.search(r"D-ECE = ([0-9.]+)%", capsys.readouterr().out).group(1))
        assert run(["eval", "--in", calibrated, "--features", "conf", "--bins", 20]) == 0
        after = float(re.search(r"D-ECE = ([0-9.]+)%", capsys.readouterr().out).group(1))
        assert after < before

    def test_full_pipeline_reduces_full_dece(self, tmp_path, capsys):
        train = synth_file(tmp_path, "train.jsonl", n=30000, seed=1)
        test = synth_file(tmp_path, "test.jsonl", n=20000, seed=2)
        model = tmp_path / "model.json"
        assert run(
            ["fit", "--in", train, "--method", "lc-dep", "--features", "full", "--out", model]
        ) == 0
        calibrated = tmp_path / "cal.jsonl"
        assert run(["apply", "--model", model, "--in", test, "--out", calibrated]) == 0
        assert run(["eval", "--in", test, "--features", "full"]) == 0
        before = float(re.search(r"D-ECE = ([0-9.]+)%", capsys.readouterr().out).group(1))
        assert run(["eval", "--in", calibrated, "--features", "full"]) == 0
        after = float(re.search(r"D-ECE = ([0-9.]+)%", capsys.readouterr().out).group(1))
        assert after < before

    def test_apply_rejects_foreign_category(self, tmp_path):
        matched = synth_file(tmp_path, n=3000)
        model = tmp_path / "model.json"
        assert run(["fit", "--in", matched, "--method", "hb", "--features", "conf", "--out", model]) == 0
        samples = reference_read_matched_samples(matched)
        from dataclasses import replace

        other = [replace(s, detection=replace(s.detection, category_id=2)) for s in samples[:5]]
        mixed = tmp_path / "mixed.jsonl"
        write_matched_samples(samples + other, mixed)
        assert run(["apply", "--model", model, "--in", mixed, "--out", tmp_path / "c.jsonl"]) == 2

    def test_fit_multi_category_requires_choice(self, tmp_path):
        samples = generate(make_scenario("uniform_overconfident", 2000, seed=3))
        from dataclasses import replace

        mixed = [
            replace(s, detection=replace(s.detection, category_id=1 + i % 2))
            for i, s in enumerate(samples)
        ]
        path = tmp_path / "mixed.jsonl"
        write_matched_samples(mixed, path)
        model = tmp_path / "model.json"
        assert run(["fit", "--in", path, "--method", "hb", "--features", "conf", "--out", model]) == 2
        assert run(
            ["fit", "--in", path, "--method", "hb", "--features", "conf", "--out", model, "--category", 1]
        ) == 0
        assert json.loads(model.read_text())["category_id"] == 1
        assert run(
            ["fit", "--in", path, "--method", "hb", "--features", "conf", "--out", model, "--pooled"]
        ) == 0
        assert json.loads(model.read_text())["category_id"] is None


class TestUnworkableSettings:
    """Settings no fit or binning can use exit like other bad arguments, with no traceback."""

    @pytest.mark.parametrize("flag, value, named", [
        ("--ridge", "-1", "ridge"), ("--ridge", "nan", "ridge"), ("--ridge", "inf", "ridge"),
        ("--tol", "nan", "gradient_tolerance"), ("--tol", "inf", "gradient_tolerance"),
    ])
    def test_fit_solver_settings_exit_one(self, tmp_path, caplog, flag, value, named):
        matched = synth_file(tmp_path, n=500)
        model = tmp_path / "model.json"
        args = ["fit", "--in", matched, "--method", "lc", "--features", "conf", "--out", model, flag, value]
        assert run(args) == 1
        assert named in caplog.text
        assert not model.exists()

    def test_fit_bin_count_past_int64_is_printed_as_an_integer(self, tmp_path, caplog):
        matched = synth_file(tmp_path, n=500)
        args = ["fit", "--in", matched, "--method", "hb", "--features", "conf+xy",
                "--bins", "0,9223372036854775808,5", "--out", tmp_path / "m.json"]
        assert run(args) == 1
        assert "bin count must be >= 1, got [0 9223372036854775808 5]" in caplog.text

    @pytest.mark.parametrize("command, features, bins", [
        ("eval", "full", "1000"),  # 10^15 cells: no host allocates their 7 PiB of counts
        ("eval", "full", "10000"),  # more cells than an int64 indexes
        ("eval", "conf", "9223372036854775808"),  # a count no int64 holds
        ("heatmap", "full", "1000"),
        ("fit", "full", "1000"),
        ("fit", "full", "10000"),
        ("fit", "conf", "9223372036854775808"),
    ])
    def test_oversized_grid_exits_like_zero_bins(self, tmp_path, caplog, command, features, bins):
        matched = synth_file(tmp_path, n=500)
        args = {"eval": ["eval"], "heatmap": ["heatmap", "--axes", "cx,cy"],
                "fit": ["fit", "--method", "hb", "--out", tmp_path / "m.json"]}[command]
        args = args + ["--in", matched, "--features", features, "--bins"]
        zero_bins = run(args + ["0"])
        assert zero_bins in (1, 2)
        caplog.clear()
        assert run(args + [bins]) == zero_bins
        assert "grid" in caplog.text

    @pytest.mark.parametrize("flags", [
        ["--ious", "nan"], ["--ious", "0.5,1.5"], ["--ious", "0"], ["--ious", "abc"],
        ["--min-samples", "-3"], ["--eps", "0.7"],
    ], ids=["iou-nan", "iou-above-one", "iou-zero", "iou-text", "min-samples", "eps"])
    def test_protocol_settings_exit_one_before_any_work(self, tmp_path, capsys, flags):
        matched = synth_file(tmp_path, n=500)
        args = ["protocol", "--in", matched, "--methods", "lc", "--features", "conf", "--reps", "1"]
        args = flags + args if flags[0] == "--eps" else args + flags  # --eps is a global flag
        with mock.patch("detcal.cli.read_matched_samples") as read:
            assert run(args) == 1
        read.assert_not_called()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, code, message", [
        (["eval", "--features", "conf", "--bins", "0"], 2, "bin counts must be >= 1, got (0,)"),
        (["eval", "--features", "conf", "--min-samples", "-1"], 2, "min_samples must be >= 0, got -1"),
        (["heatmap", "--features", "conf+xy", "--axes", "cx"], 1,
         "--axes expects two comma-separated dimensions, got 'cx'"),
        (["heatmap", "--features", "conf+xy", "--axes", "cx,cx"], 1,
         "heatmap needs two different axes, got ('cx', 'cx')"),
        (["heatmap", "--features", "conf+xy", "--axes", "cx,w"], 1,
         "heatmap axis 'w' not among binning dimensions ('confidence', 'cx', 'cy')"),
    ], ids=["eval-bins", "eval-min-samples", "heatmap-one-axis", "heatmap-equal-axes", "heatmap-foreign-axis"])
    def test_eval_and_heatmap_check_flags_before_reading(self, tmp_path, monkeypatch, caplog, argv, code, message):
        """A bad flag exits as it always has, but the input is never read (nor its sidecar written)."""
        matched = synth_file(tmp_path, n=500)

        def read(path):
            raise AssertionError(f"{path} read before the flags were checked")

        monkeypatch.setattr("detcal.cli.read_matched_samples", read)
        assert run([argv[0], "--in", matched, *argv[1:]]) == code
        assert message in caplog.text

    def test_heatmap_equal_axes_exit_one(self, tmp_path, capsys):
        matched = synth_file(tmp_path, n=500)
        assert run(["heatmap", "--in", matched, "--features", "full", "--axes", "cx,cx"]) == 1
        assert capsys.readouterr().out == ""


class TestApplyOverflow:
    """A loaded model whose ratio overflows saturates its scores; a NaN score exits 2."""

    def _model(self, tmp_path, matched, method, params):
        model = tmp_path / "model.json"
        assert run(["fit", "--in", matched, "--method", method, "--features", "conf+xy",
                    "--out", model]) == 0
        doc = json.loads(model.read_text())
        doc["params"].update(params)
        model.write_text(json.dumps(doc))
        return model

    def test_saturates_without_warnings(self, tmp_path):
        matched = synth_file(tmp_path, n=2000)
        model = self._model(tmp_path, matched, "lc", {"w": [1.7e308, 1.7e308, 0.0]})
        out = tmp_path / "cal.jsonl"
        proc = run_process(["apply", "--model", model, "--in", matched, "--out", out])
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        scores = {json.loads(line)["score"] for line in out.read_text().splitlines()}
        assert scores <= {0.0, 1.0}

    def test_nan_score_exits_two(self, tmp_path, caplog):
        matched = synth_file(tmp_path, n=2000)
        # log(s) * a0 runs to -inf for a low score and -log1p(-cx) * b1 to +inf
        # for a box near the right edge, so such a sample's ratio is NaN.
        model = self._model(tmp_path, matched, "bc", {"a": [1e308, 0.0, 0.0], "b": [1.0, 1e308, 0.0]})
        probe = tmp_path / "probe.jsonl"
        box = BoxGeometry(0.9, 0.5, 0.1, 0.1)
        write_matched_samples([MatchedSample(Detection(0, 1, 0.01, box), 0)], probe)
        out = tmp_path / "cal.jsonl"
        assert run(["apply", "--model", model, "--in", probe, "--out", out]) == 2
        assert "score must lie in [0, 1]" in caplog.text
        assert not out.exists()


class TestEvalCommand:
    def test_prints_percentage(self, tmp_path, capsys):
        matched = synth_file(tmp_path, n=2000)
        assert run(["eval", "--in", matched, "--features", "conf", "--bins", 20]) == 0
        out = capsys.readouterr().out
        assert re.match(r"D-ECE = \d+\.\d{3}%\n", out)

    def test_bad_bins_exit_one(self, tmp_path):
        matched = synth_file(tmp_path, n=500)
        assert run(["eval", "--in", matched, "--features", "conf", "--bins", "3,4"]) == 1

    def test_empty_bins_exit_two(self, tmp_path):
        matched = synth_file(tmp_path, n=20)
        assert run(
            ["eval", "--in", matched, "--features", "conf", "--bins", 20, "--min-samples", 1000]
        ) == 2


class TestBadMatchedInput:
    """Data errors in a matched-sample file exit 2 with file:line context."""

    GOOD = {"image_id": 0, "category_id": 1, "score": 0.5,
            "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}, "matched": 0}

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            json.dumps({**GOOD, "score": "abc"}),
            json.dumps({**GOOD, "box": [0.5, 0.5, 0.1, 0.1]}),
            json.dumps({**GOOD, "matched": None}),
            json.dumps({**GOOD, "matched": 1e400}),
            json.dumps({**GOOD, "category_id": 1.5}),
            json.dumps({**GOOD, "category_id": "3"}),
            json.dumps({**GOOD, "category_id": True}),
        ],
        ids=["non-object", "string-score", "list-box", "null-label", "infinite-label",
             "fractional-category", "numeric-string-category", "bool-category"],
    )
    def test_eval_exits_two(self, tmp_path, caplog, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        assert run(["eval", "--in", bad, "--features", "conf"]) == 2
        assert "bad.jsonl:1" in caplog.text
        assert "Traceback" not in caplog.text

    def test_undecodable_bytes_exit_two(self, tmp_path, caplog):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps(self.GOOD).encode() + b"\n{\"image_id\": \"\xff\"}\n")
        assert run(["eval", "--in", bad, "--features", "conf"]) == 2
        assert "bad.jsonl:2" in caplog.text


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A matched-sample file, an lc model fitted on it, and a native detection/annotation pair."""
    root = tmp_path_factory.mktemp("valid")
    matched, model = root / "matched.jsonl", root / "model.json"
    assert run(["synth", "--scenario", "fig3_boundary_decay", "--n", 2000, "--out", matched]) == 0
    assert run(["fit", "--in", matched, "--method", "lc", "--features", "conf", "--out", model]) == 0
    hb_model = root / "hb.json"
    assert run(["fit", "--in", matched, "--method", "hb", "--features", "conf", "--out", hb_model]) == 0
    box = BoxGeometry(0.5, 0.5, 0.2, 0.2)
    det, ann = root / "d.jsonl", root / "a.jsonl"
    write_native(det, ann, [Detection(0, 1, 0.9, box)], [GroundTruthObject(0, 1, box)], [ImageRecord(0, 100, 100)])
    return {"matched": matched, "model": model, "hb_model": hb_model, "det": det, "ann": ann}


class TestBadModelFile:
    """A malformed model file exits 2 with its path, never a traceback."""

    @staticmethod
    def _meta(m, **fields):
        return {**m, "fit_metadata": {**m["fit_metadata"], **fields}}

    @staticmethod
    def _params(m, **fields):
        return {**m, "params": {**m["params"], **fields}}

    # From "converged-string" on, each case but "bool-bin-count" loaded before,
    # coerced: "no" and 1 as converged, 1.9 as category 1, true as 1, strings
    # as numbers, 15.9 bins as 15, and true or 1.0 passed the schema version test.
    @pytest.mark.parametrize(
        "model, edit",
        [
            ("model", lambda m: {**m, "params": {**m["params"], "w": "abc"}}),
            ("model", lambda m: {**m, "params": [1]}),
            ("model", lambda m: [1]),
            ("model", lambda m: {**m, "params": {**m["params"], "c": None}}),
            ("model", lambda m: {**m, "fit_metadata": {**m["fit_metadata"], "n_samples": "x"}}),
            ("model", lambda m: TestBadModelFile._meta(m, converged="no")),
            ("model", lambda m: TestBadModelFile._meta(m, converged=1)),
            ("model", lambda m: {**m, "category_id": 1.9}),
            ("model", lambda m: {**m, "category_id": True}),
            ("model", lambda m: TestBadModelFile._meta(m, n_samples=True)),
            ("model", lambda m: TestBadModelFile._meta(m, n_iterations=2.5)),
            ("model", lambda m: TestBadModelFile._meta(m, final_nll="0.5")),
            ("model", lambda m: TestBadModelFile._params(m, w=["1.5"])),
            ("model", lambda m: TestBadModelFile._params(m, w=[True])),
            ("model", lambda m: TestBadModelFile._params(m, c="0.25")),
            ("model", lambda m: {**m, "schema_version": True}),
            ("model", lambda m: {**m, "schema_version": 1.0}),
            ("hb_model", lambda m: TestBadModelFile._params(m, bin_counts=[15.9])),
            ("hb_model", lambda m: TestBadModelFile._params(m, bin_counts=[True])),
            ("hb_model", lambda m: TestBadModelFile._params(m, global_precision="0.4")),
            ("hb_model", lambda m: TestBadModelFile._params(
                m, tables=[["0.5" if v is not None else None for v in m["params"]["tables"][0]]])),
        ],
        ids=["string-weights", "list-params", "list-model", "null-bias", "string-n-samples",
             "converged-string", "converged-int", "fractional-category", "bool-category", "bool-n-samples",
             "fractional-n-iterations", "string-final-nll", "numeric-string-weight", "bool-weight",
             "numeric-string-bias", "bool-schema-version", "float-schema-version", "fractional-bin-count",
             "bool-bin-count", "numeric-string-global-precision", "numeric-string-table-cell"],
    )
    def test_apply_exits_two(self, tmp_path, caplog, valid_inputs, model, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(valid_inputs[model].read_text()))))
        assert run(["apply", "--model", bad, "--in", valid_inputs["matched"],
                    "--out", tmp_path / "c.jsonl"]) == 2
        assert "bad.json" in caplog.text

    @pytest.mark.parametrize("model", ["model", "hb_model"])
    def test_whole_numbers_stored_as_floats_load(self, tmp_path, valid_inputs, model):
        """Counts and ids follow the loaders' rule: an integral float is a whole number."""
        doc = json.loads(valid_inputs[model].read_text())
        doc = self._meta({**doc, "category_id": 1.0}, n_samples=float(doc["fit_metadata"]["n_samples"]))
        if model == "hb_model":
            doc = self._params(doc, bin_counts=[float(c) for c in doc["params"]["bin_counts"]])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        loaded = calibrators.load_model(path)
        assert loaded.category_id == 1 and type(loaded.fit_metadata.n_samples) is int
        if model == "hb_model":
            assert [type(c) for c in loaded.params.bin_counts] == [int]

    def test_undecodable_model_exits_two(self, tmp_path, caplog, valid_inputs):
        bad = tmp_path / "bad.json"
        bad.write_bytes(valid_inputs["model"].read_bytes().replace(b'"method"', b'"\xffmethod"', 1))
        assert run(["apply", "--model", bad, "--in", valid_inputs["matched"],
                    "--out", tmp_path / "c.jsonl"]) == 2
        assert "bad.json:3" in caplog.text


# Every file-reading subcommand, with {bad} standing for the malformed file.
FILE_READERS = {
    "match-detections": ["match", "--detections", "{bad}", "--annotations", "{ann}",
                         "--iou", "0.5", "--out", "{out}"],
    "match-annotations": ["match", "--detections", "{det}", "--annotations", "{bad}",
                          "--iou", "0.5", "--out", "{out}"],
    "fit": ["fit", "--in", "{bad}", "--method", "lc", "--features", "conf", "--out", "{out}"],
    "apply-model": ["apply", "--model", "{bad}", "--in", "{matched}", "--out", "{out}"],
    "apply-in": ["apply", "--model", "{model}", "--in", "{bad}", "--out", "{out}"],
    "eval": ["eval", "--in", "{bad}", "--features", "conf"],
    "heatmap": ["heatmap", "--in", "{bad}", "--features", "conf+xy", "--axes", "cx,cy"],
    "protocol": ["protocol", "--in", "{bad}", "--methods", "hb", "--features", "conf", "--reps", "1"],
}
BAD_CONTENT = {"undecodable": b'{"image_id": "\xff"}\n', "non-object": b"[1, 2]\n"}


@pytest.mark.parametrize("content", BAD_CONTENT)
@pytest.mark.parametrize("command", FILE_READERS)
def test_file_reader_contract(tmp_path, valid_inputs, command, content):
    """Exit 2 with the offending path on stderr and no traceback, in a real process."""
    bad = tmp_path / "bad.input"
    bad.write_bytes(BAD_CONTENT[content])
    argv = [a.format(bad=bad, out=tmp_path / "out", **valid_inputs) for a in FILE_READERS[command]]
    proc = run_process(argv)
    assert proc.returncode == 2, proc.stderr
    assert str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr


UNKNOWN_FEATURE_SET = {
    "fit": ["fit", "--in", "{matched}", "--method", "lc", "--features", "xywh", "--out", "{out}"],
    "eval": ["eval", "--in", "{matched}", "--features", "xywh"],
    "heatmap": ["heatmap", "--in", "{matched}", "--features", "xywh", "--axes", "cx,cy"],
    "protocol-features": ["protocol", "--in", "{matched}", "--features", "conf,xywh"],
    "protocol-eval-features": ["protocol", "--in", "{matched}", "--features", "conf,full",
                               "--eval-features", "full,xywh"],
}


@pytest.mark.parametrize("command", UNKNOWN_FEATURE_SET)
def test_unknown_feature_set_lists_the_names(tmp_path, valid_inputs, command):
    """Every command that takes a feature-set name exits 1 and names the sets it knows."""
    argv = [a.format(out=tmp_path / "out", **valid_inputs) for a in UNKNOWN_FEATURE_SET[command]]
    proc = run_process(argv)
    assert proc.returncode == 1, proc.stderr
    assert ("unknown feature set 'xywh'; expected one of ['conf', 'conf+wh', 'conf+xy', 'full']"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


class TestHeatmapCommand:
    def test_csv_schema(self, tmp_path):
        matched = synth_file(tmp_path, n=20000)
        out = tmp_path / "grid.csv"
        assert run(
            ["heatmap", "--in", matched, "--features", "conf+xy", "--axes", "cx,cy", "--out", out]
        ) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["axis1_bin", "axis2_bin", "d_ece_contrib", "count", "precision", "confidence"]
        assert len(rows) > 1
        counts = [int(r[3]) for r in rows[1:]]
        assert sum(counts) > 0

    def test_axes_validation(self, tmp_path):
        matched = synth_file(tmp_path, n=500)
        assert run(
            ["heatmap", "--in", matched, "--features", "conf+xy", "--axes", "cx", "--out", tmp_path / "g.csv"]
        ) == 1

    def test_stdout_default(self, tmp_path, capsys):
        matched = synth_file(tmp_path, n=20000)
        assert run(["heatmap", "--in", matched, "--features", "conf+xy", "--axes", "cx,cy"]) == 0
        assert capsys.readouterr().out.startswith("axis1_bin,")


class TestProtocolCommand:
    def test_text_output(self, tmp_path, capsys):
        matched = synth_file(tmp_path, n=6000)
        assert run(
            ["protocol", "--in", matched, "--methods", "identity,hb", "--features", "conf",
             "--reps", 2, "--seed", 3, "--format", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "hb" in out

    def test_requires_an_input(self):
        assert run(["protocol", "--methods", "hb", "--features", "conf"]) == 1

    def test_csv_to_file(self, tmp_path):
        matched = synth_file(tmp_path, n=6000)
        out = tmp_path / "table.csv"
        assert run(
            ["protocol", "--in", matched, "--methods", "lc", "--features", "conf",
             "--reps", 2, "--format", "csv", "--out", out]
        ) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "method"

    def test_eval_features_override(self, tmp_path, capsys):
        matched = synth_file(tmp_path, n=8000)
        assert run(
            ["protocol", "--in", matched, "--methods", "lc", "--features", "conf",
             "--eval-features", "conf+xy", "--reps", 1, "--format", "text"]
        ) == 0
        assert "conf->conf+xy" in capsys.readouterr().out

    def test_dimensionality_refusal_exits_one(self, tmp_path):
        matched = synth_file(tmp_path, n=2000)
        assert run(
            ["protocol", "--in", matched, "--methods", "lc", "--features", "conf+xy",
             "--eval-features", "conf", "--reps", 1]
        ) == 1

    def test_matching_input_path(self, tmp_path, capsys):
        rng = np.random.default_rng(30)
        detections, truth, images = [], [], []
        for i in range(150):
            cx, cy = rng.uniform(0.3, 0.7, 2)
            truth.append(GroundTruthObject(i, 1, BoxGeometry(cx, cy, 0.2, 0.2)))
            shift = float(rng.uniform(0.0, 0.12))
            detections.append(
                Detection(i, 1, float(rng.uniform(0.3, 0.95)), BoxGeometry(cx + shift, cy, 0.2, 0.2))
            )
            images.append(ImageRecord(i, 640, 480))
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        write_native(det_path, ann_path, detections, truth, images)
        assert run(
            ["protocol", "--detections", det_path, "--annotations", ann_path,
             "--ious", "0.5,0.9", "--methods", "identity", "--features", "conf",
             "--reps", 1, "--min-samples", 0]
        ) == 0
        out = capsys.readouterr().out
        assert "IoU@0.5" in out and "IoU@0.9" in out


class TestGlobalFlags:
    def test_out_dir_prefixes_relative_paths(self, tmp_path):
        sub = tmp_path / "results"
        sub.mkdir()
        assert run(
            ["--out-dir", sub, "synth", "--scenario", "perfectly_calibrated", "--n", 20, "--out", "s.jsonl"]
        ) == 0
        assert (sub / "s.jsonl").exists()
