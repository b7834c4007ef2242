import functools
import json
import logging
import os
import sys
import threading
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detcal import cli, detections, matching
from detcal.detections import (
    EDGE_CLAMP_TOLERANCE,
    INT64_MAX,
    INT64_MIN,
    BoxGeometry,
    Detection,
    DetectionTable,
    GroundTruthObject,
    GroundTruthTable,
    ImageRecord,
    _box_from_relative,
    _boxes_from_absolute,
    _boxes_from_relative,
    _RecordPolicy,
    box_from_absolute,
    load_dataset,
    valid_boxes,
)
from detcal.errors import (
    DataError,
    DetcalError,
    ParseError,
    ReferentialIntegrityError,
    UsageError,
    ValidationError,
)
from detcal.matching import (
    MatchedSample,
    SampleColumns,
    columns,
    read_matched_samples,
    write_matched_samples,
)
from oracles import (
    assert_same_columns,
    constructor_calls,
    random_matched_samples,
    record_bits,
    reference_box_from_absolute,
    reference_box_from_relative,
    reference_load_coco,
    reference_native_annotations,
    reference_native_detections,
)
from strategies import JSON_VALUES


def write_coco(tmp_path, images, annotations, categories, results):
    ann_path = tmp_path / "ann.json"
    det_path = tmp_path / "det.json"
    ann_path.write_text(
        json.dumps({"images": images, "annotations": annotations, "categories": categories})
    )
    det_path.write_text(json.dumps(results))
    return det_path, ann_path


BASE_IMAGES = [{"id": 1, "width": 100, "height": 200}]
BASE_CATEGORIES = [{"id": 7, "name": "person"}]


class TestBoxGeometry:
    def test_valid_box(self):
        box = BoxGeometry(0.5, 0.5, 0.4, 0.2)
        assert box.corners() == (0.3, 0.4, 0.7, 0.6)

    def test_rejects_out_of_range_center(self):
        with pytest.raises(ValidationError):
            BoxGeometry(1.2, 0.5, 0.1, 0.1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValidationError):
            BoxGeometry(0.5, 0.5, 0.0, 0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            BoxGeometry(float("nan"), 0.5, 0.1, 0.1)

    def test_small_overhang_tolerated_large_rejected(self):
        BoxGeometry(0.01, 0.5, 0.05, 0.1)  # 1.5% overhang on the left
        with pytest.raises(ValidationError):
            BoxGeometry(0.05, 0.5, 0.4, 0.1)

    def test_score_range_validated(self):
        with pytest.raises(ValidationError):
            Detection(1, 1, 1.5, BoxGeometry(0.5, 0.5, 0.1, 0.1))


def _hex_box(box):
    return tuple(v.hex() for v in (box.cx, box.cy, box.w, box.h))


def _scalar_box(make):
    """The box ``make()`` returns as hex floats, or None when it raises ValidationError."""
    try:
        box = make()
    except ValidationError:
        return None
    return _hex_box(box)


def _converted(make):
    """The box ``make()`` returns as hex floats, or the type and message of the error it raises."""
    try:
        return _hex_box(make())
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# Values near the ends of the ranges the box checks test, with non-finite ones.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.01, 0.02, 0.99, 1.02, -0.02, 1e-300,
                               float("nan"), float("inf"), -float("inf")]) | st.floats(-0.1, 1.1)


class TestVectorizedBoxChecks:
    """The array forms of the box checks against the scalar ones, and the converters, one row of their
    array forms, against the scalar reference converters, message for message."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=20))
    @example([(0.5, 0.5, 1.0, 1.0), (0.5, 0.5, 1.02, 0.5), (0.5, 0.5, 0.5, 1.02),
              (-0.001, 0.5, 0.001, 0.1), (0.5, -0.001, 0.1, 0.001), (1.001, 0.5, 0.001, 0.1),
              (0.5, 1.001, 0.1, 0.001), (0.5, 0.5, 0.0, 0.1), (0.5, 0.5, 0.1, -0.0),
              (0.01, 0.5, 0.05, 0.1), (0.05, 0.5, 0.4, 0.1), (0.5, 0.99, 0.1, 0.06)])
    def test_valid_boxes_matches_box_geometry(self, rows):
        ok = valid_boxes(*np.array(rows).T)
        assert ok.tolist() == [_scalar_box(lambda: BoxGeometry(*row)) is not None for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 640), st.integers(1, 480),
                              st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)),
                    min_size=1, max_size=20))
    @example([(100, 200, (-0.01, 0.0, 0.5, 0.5)), (100, 200, (0.6, 0.0, 0.41, 0.5)),
              (100, 200, (0.0, -0.01, 0.5, 0.5)), (100, 200, (0.0, 0.6, 0.5, 0.41)),
              (100, 200, (-0.02, -0.0, 0.5, 0.5)), (100, 200, (-0.021, 0.0, 0.5, 0.5)),
              (100, 200, (1.0, 0.0, 0.01, 0.5)), (100, 200, (0.5, 0.5, 0.0, 0.5))])
    def test_boxes_from_absolute_matches_the_scalar_conversion(self, rows):
        # Relative draws scaled to pixels, so that boxes land in and around each image.
        size = np.array([(w, h) for w, h, _ in rows], np.float64)
        with np.errstate(all="ignore"):
            xywh = np.array([b for _, _, b in rows]) * np.tile(size, 2)
        ok, box, _ = _boxes_from_absolute(xywh, size)
        expected = [_scalar_box(lambda: reference_box_from_absolute(b, w, h))
                    for (w, h, _), b in zip(rows, xywh.tolist())]
        got = [_hex_box(BoxGeometry(*row)) if accepted else None
               for accepted, row in zip(ok.tolist(), np.array(box).T.tolist())]
        assert got == expected
        for (w, h, _), b in zip(rows, xywh.tolist()):
            assert _converted(lambda: box_from_absolute(b, w, h)) == _converted(
                lambda: reference_box_from_absolute(b, w, h))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=20))
    @example([(0.01, 0.5, 0.05, 0.1), (0.05, 0.5, 0.4, 0.1), (-0.005, 0.5, 0.01, 0.1), (0.5, 1.005, 0.1, 0.01),
              (float("nan"), 0.01, 0.1, 0.04), (0.5, 0.5, float("nan"), 0.1), (0.5, 0.01, float("nan"), 0.04),
              (float("inf"), 0.5, float("inf"), 0.1), (0.5, 0.5, 0.0, 0.1)])
    def test_boxes_from_relative_matches_the_scalar_conversion(self, rows):
        ok, box, _ = _boxes_from_relative(*np.array(rows).T)
        records = [dict(zip(("cx", "cy", "w", "h"), row)) for row in rows]
        expected = [_scalar_box(lambda: reference_box_from_relative(rec)) for rec in records]
        got = [_hex_box(BoxGeometry(*row)) if accepted else None
               for accepted, row in zip(ok.tolist(), np.array(box).T.tolist())]
        assert got == expected
        for rec in records:
            assert _converted(lambda: _box_from_relative(rec)) == _converted(
                lambda: reference_box_from_relative(rec))


RELATIVE_BOX = {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}


class TestConverterMessages:
    """Each error of the converters, word for word, as the scalar reference converters give it."""

    @pytest.mark.parametrize("bbox, error, message", [
        ([10, 10, 0, 5], ValidationError, "box has nonpositive width/height: [10.0, 10.0, 0.0, 5.0]"),
        ([10, 10, 5, -1.5], ValidationError, "box has nonpositive width/height: [10.0, 10.0, 5.0, -1.5]"),
        ([-10, 0, 50, 100], ValidationError,
         "box [-10.0, 0.0, 50.0, 100.0] extends 0.1000 beyond the 100x200 image, above the 2% tolerance"),
        ([60, 190, 50, 100], ValidationError,
         "box [60.0, 190.0, 50.0, 100.0] extends 0.4500 beyond the 100x200 image, above the 2% tolerance"),
        ([-1, 10, 0.5, 5], ValidationError, "box [0.0, 10.0, 0.5, 5.0] collapses after clamping"),
        ([-0.0, 201, 5, 0.5], ValidationError, "box [-0.0, 201.0, 5.0, 0.5] collapses after clamping"),
        ([10, "20", 30, 40], TypeError, "bbox value must be a real number, got '20'"),
        ([10, True, 30, 40], TypeError, "bbox value must be a real number, got True"),
        ([10, "x", 30, 40], ValueError, "could not convert string to float: 'x'"),
        ([10, 20, 30], ValueError, "not enough values to unpack (expected 4, got 3)"),
        ([float("nan"), 20, 30, 40], ValidationError, "cx must be finite, got nan"),
    ], ids=["zero-width", "negative-height", "overhang", "overhang-far-corner", "collapse", "collapse-bottom",
            "numeric-string", "bool", "string", "three-values", "nan"])
    def test_absolute(self, bbox, error, message):
        with pytest.raises(error) as excinfo:
            box_from_absolute(bbox, 100, 200)
        assert str(excinfo.value) == message
        assert _converted(lambda: reference_box_from_absolute(bbox, 100, 200)) == (error, message)

    @pytest.mark.parametrize("change, error, message", [
        ({"w": 0}, ValidationError, "box has nonpositive width/height: {'cx': 0.5, 'cy': 0.5, 'w': 0, 'h': 0.1}"),
        ({"cx": 0.01}, ValidationError,
         "box {'cx': 0.01, 'cy': 0.5, 'w': 0.1, 'h': 0.1} extends 0.0400 beyond the image, above the 2% tolerance"),
        ({"cx": -0.005, "w": 0.01}, ValidationError, "box size out of range: w=0.0, h=0.10000000000000003"),
        ({"h": None}, ValidationError, "box record missing field 'h'"),
        ({"cx": "0.5"}, TypeError, "cx must be a real number, got '0.5'"),
        ({"w": "wide"}, ValueError, "could not convert string to float: 'wide'"),
        ({"cy": float("inf")}, ValidationError,
         "box {'cx': 0.5, 'cy': inf, 'w': 0.1, 'h': 0.1} extends inf beyond the image, above the 2% tolerance"),
    ], ids=["nonpositive", "overhang", "collapse", "missing-field", "numeric-string", "string", "infinite"])
    def test_relative(self, tmp_path, change, error, message):
        box = {**RELATIVE_BOX, **change}
        if box["h"] is None:
            del box["h"]
        with pytest.raises(error) as excinfo:
            _box_from_relative(box)
        assert str(excinfo.value) == message
        assert _converted(lambda: reference_box_from_relative(box)) == (error, message)
        # In a file, the message follows the line's place.
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        det_path.write_text("")
        ann_path.write_text("\n".join(json.dumps(o) for o in [GOOD_OBJECT, {**GOOD_OBJECT, "box": box}]) + "\n")
        where = message if error is ValidationError else f"invalid annotation record: {message}"
        with pytest.raises(ValidationError) as excinfo:
            load_dataset(det_path, ann_path, fmt="native")
        assert str(excinfo.value) == f"{ann_path}:2: {where}"


class TestAbsoluteConversion:
    def test_hand_example(self):
        box = box_from_absolute([10, 20, 30, 40], 100, 200)
        assert box == BoxGeometry(cx=0.25, cy=0.20, w=0.30, h=0.20)

    def test_full_image_box(self):
        assert box_from_absolute([0, 0, 100, 200], 100, 200) == BoxGeometry(0.5, 0.5, 1.0, 1.0)

    def test_round_trip_to_absolute(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w_px, h_px = rng.integers(50, 2000, 2)
            x = rng.uniform(0, w_px - 2)
            y = rng.uniform(0, h_px - 2)
            w = rng.uniform(0.5, w_px - x)
            h = rng.uniform(0.5, h_px - y)
            box = box_from_absolute([x, y, w, h], int(w_px), int(h_px))
            back = ((box.cx - 0.5 * box.w) * w_px, (box.cy - 0.5 * box.h) * h_px, box.w * w_px, box.h * h_px)
            for a, b in zip(back, (x, y, w, h)):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_clamps_small_overhang(self):
        box = box_from_absolute([-1, 0, 50, 100], 100, 200)
        assert box.cx == pytest.approx(0.245)
        assert box.w == pytest.approx(0.49)

    def test_rejects_large_overhang(self):
        with pytest.raises(ValidationError):
            box_from_absolute([-10, 0, 50, 100], 100, 200)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValidationError):
            box_from_absolute([10, 10, 0, 5], 100, 200)


class TestCocoIngestion:
    def test_basic_load(self, tmp_path):
        det_path, ann_path = write_coco(
            tmp_path,
            BASE_IMAGES,
            [{"image_id": 1, "category_id": 7, "bbox": [10, 20, 30, 40], "iscrowd": 0}],
            BASE_CATEGORIES,
            [{"image_id": 1, "category_id": 7, "bbox": [12, 20, 30, 40], "score": 0.9}],
        )
        detections, ground_truth, categories = load_dataset(det_path, ann_path)
        assert categories == {7: "person"}
        assert len(detections) == 1 and len(ground_truth) == 1
        assert ground_truth[0].box == BoxGeometry(0.25, 0.2, 0.3, 0.2)
        assert detections[0].score == 0.9
        assert not ground_truth[0].crowd_flag

    def test_crowd_flag_carried(self, tmp_path):
        det_path, ann_path = write_coco(
            tmp_path,
            BASE_IMAGES,
            [{"image_id": 1, "category_id": 7, "bbox": [10, 20, 30, 40], "iscrowd": 1}],
            BASE_CATEGORIES,
            [],
        )
        _, ground_truth, _ = load_dataset(det_path, ann_path)
        assert ground_truth[0].crowd_flag

    def test_empty_detections_array(self, tmp_path):
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, [], BASE_CATEGORIES, [])
        detections, _, _ = load_dataset(det_path, ann_path)
        assert detections == []

    def test_unknown_image_id(self, tmp_path):
        det_path, ann_path = write_coco(
            tmp_path,
            BASE_IMAGES,
            [],
            BASE_CATEGORIES,
            [{"image_id": 99, "category_id": 7, "bbox": [0, 0, 10, 10], "score": 0.5}],
        )
        with pytest.raises(ReferentialIntegrityError):
            load_dataset(det_path, ann_path)

    def test_category_missing_from_table(self, tmp_path):
        det_path, ann_path = write_coco(
            tmp_path,
            BASE_IMAGES,
            [],
            BASE_CATEGORIES,
            [{"image_id": 1, "category_id": 42, "bbox": [0, 0, 10, 10], "score": 0.5}],
        )
        with pytest.raises(ReferentialIntegrityError):
            load_dataset(det_path, ann_path)

    # Each would otherwise load as another category: int() truncates 1.7 and
    # 1.2 to 1, so both boxes matched each other; it takes "3" as 3 and True
    # as 1, and no int64 column holds 2**70.
    @pytest.mark.parametrize(
        "side, value",
        [("annotations", 1.7), ("results", 1.2), ("results", "3"), ("annotations", True),
         ("annotations", 2**70)],
        ids=["fractional-annotation", "fractional-result", "numeric-string-result",
             "bool-annotation", "annotation-past-int64"],
    )
    def test_category_id_must_be_a_whole_int64(self, tmp_path, caplog, side, value):
        annotation = {"image_id": 1, "category_id": 1, "bbox": [10, 20, 30, 40]}
        result = {**annotation, "score": 0.9}
        bad = {**(annotation if side == "annotations" else result), "category_id": value}
        annotations, results = [annotation], [result]
        (annotations if side == "annotations" else results).append(bad)
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, annotations, [], results)
        assert cli.main(["match", "--detections", str(det_path), "--annotations", str(ann_path),
                         "--iou", "0.5", "--out", str(tmp_path / "m.jsonl")]) == 2
        where = "ann.json: annotation #1" if side == "annotations" else "det.json: result #1"
        assert f"{where}: category_id must" in caplog.text
        loaded, ground_truth, categories = load_dataset(det_path, ann_path, on_invalid="skip")
        assert (len(loaded), len(ground_truth), categories) == (1, 1, {1: "1"})

    def test_skip_policy_drops_bad_records(self, tmp_path):
        det_path, ann_path = write_coco(
            tmp_path,
            BASE_IMAGES,
            [],
            BASE_CATEGORIES,
            [
                {"image_id": 1, "category_id": 7, "bbox": [0, 0, 10, 10], "score": 0.5},
                {"image_id": 1, "category_id": 7, "bbox": [0, 0, -5, 10], "score": 0.5},
            ],
        )
        with pytest.raises(ValidationError):
            load_dataset(det_path, ann_path)
        detections, _, _ = load_dataset(det_path, ann_path, on_invalid="skip")
        assert len(detections) == 1

    def test_malformed_json_has_line_context(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"images": [\n  {"id": 1, "width": 100,, "height": 200}\n]}')
        det = tmp_path / "det.json"
        det.write_text("[]")
        with pytest.raises(ParseError, match=r":2:"):
            load_dataset(det, bad)

    @pytest.mark.parametrize(
        "doc",
        [
            {"images": [{"id": 1, "width": 100}]},
            {"images": [[1, 100, 200]]},
            {"images": BASE_IMAGES, "categories": [{"name": "person"}]},
            {"images": BASE_IMAGES, "annotations": 5},
            {"images": BASE_IMAGES, "annotations": [{"image_id": 1, "category_id": 7}]},
            {"images": BASE_IMAGES, "annotations": [[1, 7]]},
        ],
        ids=["image-missing-height", "list-image", "category-missing-id", "scalar-annotations",
             "annotation-missing-bbox", "list-annotation"],
    )
    def test_malformed_annotation_document_is_validation_error(self, tmp_path, doc):
        ann, det = tmp_path / "ann.json", tmp_path / "det.json"
        ann.write_text(json.dumps(doc))
        det.write_text("[]")
        with pytest.raises(ValidationError, match=r"ann\.json"):
            load_dataset(det, ann)

    def test_unknown_format_rejected(self, tmp_path):
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, [], BASE_CATEGORIES, [])
        with pytest.raises(UsageError):
            load_dataset(det_path, ann_path, fmt="parquet")


class TestNativeFormat:
    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        detections = [s.detection for s in random_matched_samples(rng, 1000)]
        images = [ImageRecord(i, 640, 480) for i in range(len(detections))]
        det_path = tmp_path / "d.jsonl"
        ann_path = tmp_path / "a.jsonl"
        det_path.write_bytes(_json_lines(map(asdict, detections)))
        ann_path.write_bytes(_json_lines({"image": asdict(image)} for image in images))
        loaded, _, _ = load_dataset(det_path, ann_path)
        assert loaded == detections

    def test_empty_native_files_load(self, tmp_path):
        det_path = tmp_path / "d.jsonl"
        ann_path = tmp_path / "a.jsonl"
        det_path.write_text("")
        ann_path.write_text("")
        detections, ground_truth, categories = load_dataset(det_path, ann_path)
        assert detections == [] and ground_truth == [] and categories == {}

    def test_order_preserved(self, tmp_path):
        rng = np.random.default_rng(3)
        detections = [s.detection for s in random_matched_samples(rng, 50)]
        det_path = tmp_path / "d.jsonl"
        ann_path = tmp_path / "a.jsonl"
        det_path.write_bytes(_json_lines(map(asdict, detections)))
        ann_path.write_bytes(_json_lines({"image": asdict(ImageRecord(i, 10, 10))} for i in range(50)))
        loaded, _, _ = load_dataset(det_path, ann_path)
        assert [d.image_id for d in loaded] == [d.image_id for d in detections]

    def test_native_annotations(self, tmp_path):
        gt = GroundTruthObject(0, 2, BoxGeometry(0.5, 0.5, 0.2, 0.2), crowd_flag=True)
        ann_path = tmp_path / "a.jsonl"
        det_path = tmp_path / "d.jsonl"
        ann_path.write_bytes(_json_lines([{"image": asdict(ImageRecord(0, 10, 10))},
                                          {"category": {"id": 2, "name": "car"}}, asdict(gt)]))
        det_path.write_text("")
        _, ground_truth, categories = load_dataset(det_path, ann_path)
        assert ground_truth == [gt]
        assert categories == {2: "car"}

    def test_malformed_jsonl_line_context(self, tmp_path):
        det_path = tmp_path / "d.jsonl"
        ann_path = tmp_path / "a.jsonl"
        good = '{"image_id": 0, "category_id": 1, "score": 0.5, "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}}'
        det_path.write_text(good + "\nnot json\n")
        ann_path.write_text("")
        with pytest.raises(ParseError, match=r"d\.jsonl:2"):
            load_dataset(det_path, ann_path)

    def test_unknown_image_rejected(self, tmp_path):
        det_path = tmp_path / "d.jsonl"
        ann_path = tmp_path / "a.jsonl"
        det_path.write_bytes(_json_lines([asdict(Detection(99, 1, 0.5, BoxGeometry(0.5, 0.5, 0.1, 0.1)))]))
        ann_path.write_bytes(_json_lines([{"image": asdict(ImageRecord(0, 10, 10))}]))
        with pytest.raises(ReferentialIntegrityError):
            load_dataset(det_path, ann_path)

    def test_sniffing(self, tmp_path):
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, [], BASE_CATEGORIES, [])
        assert detections._sniff(ann_path)[0] == "coco"
        native = tmp_path / "n.jsonl"
        native.write_bytes(_json_lines([asdict(Detection(1, 1, 0.5, BoxGeometry(0.5, 0.5, 0.1, 0.1)))]))
        assert detections._sniff(native)[0] == "native"
        results = [{"image_id": 1, "category_id": 7, "bbox": [0, 0, 10, 10], "score": 0.5}]
        assert detections._sniff(det_path)[0] == "coco"
        det_path.write_text(json.dumps(results))
        assert detections._sniff(det_path)[0] == "coco"
        det_path.write_text(" " + json.dumps(results, indent=1))
        assert detections._sniff(det_path)[0] == "coco"
        # A whole array on the first line of several is no native file either.
        det_path.write_text(json.dumps(results) + "\n" + json.dumps(results) + "\n")
        assert detections._sniff(det_path)[0] == "coco"
        with pytest.raises(ParseError, match=r"det\.json:2: malformed JSON"):
            load_dataset(det_path, ann_path)

    def test_one_line_document_is_parsed_once(self, tmp_path):
        results = {"annotations": [{"image_id": 1, "category_id": 7, "bbox": [0, 0, 10, 10], "score": 0.5}]}
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, [], BASE_CATEGORIES, results)
        with mock.patch.object(detections, "read_json", wraps=detections.read_json) as read:
            auto = load_dataset(det_path, ann_path)
        assert read.call_count == 0
        assert auto == load_dataset(det_path, ann_path, fmt="coco")

    def test_parse_is_handed_on_only_for_the_whole_file(self, tmp_path):
        path = tmp_path / "ann.json"
        doc = {"images": [], "annotations": []}
        for tail, handed in [("", True), ("\r\n \t\n", True), ("\n" + " " * 5000 + "{}", False),
                             ("\n\x0c", False)]:
            path.write_text(json.dumps(doc) + tail)
            assert detections._sniff(path) == ("coco", doc if handed else None)

    @pytest.mark.parametrize("first", ['{"n": ' + "1" * 5000 + "}", '{"a": ' * 100_000],
                             ids=["long-integer", "deep-nesting"])
    def test_unreadable_first_line_is_a_parse_error(self, tmp_path, first):
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, [], BASE_CATEGORIES, [])
        ann_path.write_text(first + "\n")
        assert detections._sniff(ann_path)[0] == "coco"
        with pytest.raises(ParseError, match=r"ann\.json"):
            load_dataset(det_path, ann_path)

    def test_long_results_line_is_decided_from_its_start(self, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(" " * 10_000 + "[" + "1, " * 10_000 + "1]")
        with mock.patch.object(json, "loads", side_effect=AssertionError("parsed")):
            assert detections._sniff(path)[0] == "coco"
        path.write_text(" " * 10_000 + "\n[]")
        assert detections._sniff(path)[0] == "native"


# Values of the types each record class stores, drawn within its checks.
_UNIT = st.floats(0.0, 1.0)
_BOXES = st.builds(BoxGeometry, st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.01, 0.2), st.floats(0.01, 0.2))
_IMAGE_IDS = st.integers(INT64_MIN, INT64_MAX) | st.text(max_size=4)
_CATEGORY_IDS = st.integers(INT64_MIN, INT64_MAX)
RECORD_ROWS = {
    Detection: st.tuples(_IMAGE_IDS, _CATEGORY_IDS, _UNIT, _BOXES),
    GroundTruthObject: st.tuples(_IMAGE_IDS, _CATEGORY_IDS, _BOXES, st.booleans()),
    MatchedSample: st.tuples(st.builds(Detection, _IMAGE_IDS, _CATEGORY_IDS, _UNIT, _BOXES), st.just(0),
                             st.just(0.0), st.none())
    | st.tuples(st.builds(Detection, _IMAGE_IDS, _CATEGORY_IDS, _UNIT, _BOXES), st.just(1), _UNIT,
                st.integers(0, INT64_MAX)),
}


TABLES = {Detection: DetectionTable.from_records, GroundTruthObject: GroundTruthTable.from_records,
          MatchedSample: columns}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cls=st.sampled_from(list(TABLES)))
def test_tables_read_as_record_sequences(data, cls):
    """A table iterates, indexes and slices to the records it was built from, bit for bit."""
    records = [cls(*row) for row in data.draw(st.lists(RECORD_ROWS[cls], max_size=6))]
    table = TABLES[cls](records)
    # Every record exists before record_bits reads one: an instance dict
    # read out through vars() changes the size of those read out after it.
    read = [list(table), [table[i] for i in np.arange(len(table))], [table[i] for i in range(-len(table), 0)]]
    bits = [record_bits(rec) for rec in records]
    for built in read:
        assert [record_bits(rec) for rec in built] == bits
    assert table == records and records == table and table != records + [None]
    for part in (slice(1, None), slice(None, None, -2), slice(5, 0)):
        assert type(table[part]) is type(table) and table[part] == records[part]
    with pytest.raises(IndexError):
        table[np.int64(len(table))]
    with pytest.raises(TypeError):
        table[1.0]
    with pytest.raises(ValueError, match="read-only"):
        table.category_id[...] = 0


# Two rows each, the second holding one value its record rejects.
_BOXES_OK = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2], [0.2, 0.2]])
_BOXES_OUT = np.array([[0.5, 1.5], [0.5, 0.5], [0.2, 0.2], [0.2, 0.2]])
INVALID_TABLES = {
    "score": (DetectionTable((0, 1), np.array([1, 1]), *_BOXES_OK, np.array([0.5, 1.5])),
              r"score must lie in \[0, 1\], got 1\.5"),
    "box": (GroundTruthTable((0, 1), np.array([1, 1]), *_BOXES_OUT, np.array([False, False])),
            r"box center out of range: cx=1\.5"),
    "gt-index": (SampleColumns(np.array([[0.5, 0.5, 0.5, 0.2, 0.2]] * 2), np.array([1, 1]), np.array([1, 1]),
                               np.array([0.7, 0.7]), np.array([0, -1]), (0, 1)),
                 "matched sample lacks a ground-truth index"),
}


@pytest.mark.parametrize("name", list(INVALID_TABLES))
def test_reads_raise_what_the_records_reject(name):
    """A table row that its record rejects raises the record's error when indexed or iterated."""
    table, message = INVALID_TABLES[name]
    assert table[:1] == [table[0]]  # the valid row reads
    for read in (lambda t: t[1], lambda t: t[np.int64(-1)], list, lambda t: [*t[1:]]):
        with pytest.raises(ValidationError, match=message):
            read(table)


class TestNativeAnnotationRecords:
    @pytest.mark.parametrize(
        "record, missing",
        [
            ({"image": {"image_id": 0, "height_px": 10}}, "width_px"),
            ({"image": {"image_id": 0, "width_px": 10}}, "height_px"),
            ({"image": {"width_px": 10, "height_px": 10}}, "image_id"),
            ({"category": {"name": "car"}}, "id"),
        ],
    )
    def test_missing_field_is_validation_error(self, tmp_path, record, missing):
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        det_path.write_text("")
        ann_path.write_text(json.dumps({"image": {"image_id": 9, "width_px": 5, "height_px": 5}})
                            + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match=rf"a\.jsonl:2: .*missing field '{missing}'"):
            load_dataset(det_path, ann_path, fmt="native")

    @pytest.mark.parametrize(
        "record",
        [
            {"image": [0, 10, 10]},
            {"image": {"image_id": 0, "width_px": "wide", "height_px": 10}},
            {"image": {"image_id": [0], "width_px": 10, "height_px": 10}},
            {"category": {"id": "car"}},
        ],
        ids=["list-record", "string-width", "list-id", "string-category-id"],
    )
    def test_malformed_field_is_validation_error(self, tmp_path, record):
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        det_path.write_text("")
        ann_path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match=r"a\.jsonl:1"):
            load_dataset(det_path, ann_path, fmt="native")

    def test_non_object_detection_line_is_parse_error(self, tmp_path):
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        det_path.write_text("[1, 2]\n")
        ann_path.write_text("")
        with pytest.raises(ParseError, match=r"d\.jsonl:1"):
            load_dataset(det_path, ann_path, fmt="native")


GOOD_DETECTION = {"image_id": 0, "category_id": 1, "score": 0.5,
                  "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}}
GOOD_OBJECT = {"image_id": 0, "category_id": 1, "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}}


class TestNativeRecordFields:
    """Malformed values in native records are invalid records under the policy."""

    @pytest.mark.parametrize(
        "kind, record",
        [
            ("detection", {**GOOD_DETECTION, "score": "abc"}),
            ("detection", {**GOOD_DETECTION, "image_id": [0]}),
            ("object", {**GOOD_OBJECT, "category_id": "x"}),
            ("detection", {**GOOD_DETECTION, "category_id": 1.7}),
            ("detection", {**GOOD_DETECTION, "category_id": "3"}),
            ("object", {**GOOD_OBJECT, "category_id": 1.7}),
            ("object", {**GOOD_OBJECT, "category_id": True}),
            ("object", {**GOOD_OBJECT, "category_id": 2**70}),
            # Each of these loaded before: float() took "0.5" and true (a box of
            # full width), and bool() read any crowd flag, "false" as a crowd.
            ("detection", {**GOOD_DETECTION, "score": "0.5"}),
            ("detection", {**GOOD_DETECTION, "score": True}),
            ("detection", {**GOOD_DETECTION, "box": {**GOOD_DETECTION["box"], "cx": "0.5"}}),
            ("detection", {**GOOD_DETECTION, "box": {**GOOD_DETECTION["box"], "w": True}}),
            ("object", {**GOOD_OBJECT, "crowd_flag": "false"}),
            ("object", {**GOOD_OBJECT, "crowd_flag": "no"}),
            ("object", {**GOOD_OBJECT, "crowd_flag": 0.5}),
            ("object", {**GOOD_OBJECT, "crowd_flag": None}),
            # Each of these loaded as image 0 before: False == 0 and 0.0 == 0 as dict keys.
            ("detection", {**GOOD_DETECTION, "image_id": False}),
            ("detection", {**GOOD_DETECTION, "image_id": 0.0}),
            ("object", {**GOOD_OBJECT, "image_id": False}),
            ("object", {**GOOD_OBJECT, "image_id": 0.0}),
        ],
        ids=["string-score", "list-image-id", "string-category-id", "fractional-category",
             "numeric-string-category", "fractional-object-category", "bool-object-category",
             "object-category-past-int64", "numeric-string-score", "bool-score", "numeric-string-cx",
             "bool-width", "string-crowd-false", "string-crowd-no", "fractional-crowd", "null-crowd",
             "bool-image-id", "float-image-id", "bool-object-image-id", "float-object-image-id"],
    )
    @pytest.mark.parametrize("on_invalid", ["fail", "skip"])
    def test_malformed_field(self, tmp_path, kind, record, on_invalid):
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        detections = [GOOD_DETECTION] + ([record] if kind == "detection" else [])
        objects = [GOOD_OBJECT] + ([record] if kind == "object" else [])
        image = {"image": {"image_id": 0, "width_px": 10, "height_px": 10}}
        det_path.write_text("".join(json.dumps(r) + "\n" for r in detections))
        ann_path.write_text("".join(json.dumps(r) + "\n" for r in [image, *objects]))
        if on_invalid == "fail":
            where = r"d\.jsonl:2" if kind == "detection" else r"a\.jsonl:3"
            with pytest.raises(ValidationError, match=where):
                load_dataset(det_path, ann_path, on_invalid=on_invalid)
            assert cli.main(["match", "--detections", str(det_path), "--annotations", str(ann_path),
                             "--iou", "0.5", "--out", str(tmp_path / "m.jsonl")]) == 2
        else:
            loaded, ground_truth, _ = load_dataset(det_path, ann_path, on_invalid=on_invalid)
            assert len(loaded) == 1 and len(ground_truth) == 1

    @pytest.mark.parametrize("image_id", [True, 1.0, 1.5, None, (1,)], ids=["bool", "float", "fractional",
                                                                          "null", "tuple"])
    def test_image_id_is_a_str_or_an_int(self, image_id):
        box = BoxGeometry(0.5, 0.5, 0.1, 0.1)
        for make in (lambda: Detection(image_id, 1, 0.5, box), lambda: GroundTruthObject(image_id, 1, box),
                     lambda: ImageRecord(image_id, 10, 10)):
            with pytest.raises(ValidationError):
                make()

    def test_float_image_id_does_not_alias_an_int(self, tmp_path, caplog):
        """A native detection on image 1.0 matched image 1 before."""
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        det_path.write_text(json.dumps({**GOOD_DETECTION, "image_id": 1.0}) + "\n")
        ann_path.write_bytes(_json_lines([{"image": asdict(ImageRecord(1, 10, 10))},
                                          asdict(GroundTruthObject(1, 1, BoxGeometry(0.5, 0.5, 0.1, 0.1)))]))
        with pytest.raises(ValidationError, match=r"d\.jsonl:1: image_id must be a string or an integer, got 1\.0"):
            load_dataset(det_path, ann_path)
        assert cli.main(["match", "--detections", str(det_path), "--annotations", str(ann_path),
                         "--iou", "0.5", "--out", str(tmp_path / "m.jsonl")]) == 2
        assert f"{det_path}:1" in caplog.text
        loaded, ground_truth, _ = load_dataset(det_path, ann_path, on_invalid="skip")
        assert len(loaded) == 0 and len(ground_truth) == 1

    def test_unhashable_image_id_without_image_table(self, tmp_path):
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        det_path.write_text(json.dumps({**GOOD_DETECTION, "image_id": {"a": 1}}) + "\n")
        ann_path.write_text("")
        with pytest.raises(ValidationError, match=r"d\.jsonl:1: image_id"):
            load_dataset(det_path, ann_path)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a ParseError with file:line under format sniffing."""

    def test_native_detection_file(self, tmp_path):
        det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        det_path.write_bytes(json.dumps(GOOD_DETECTION).encode() + b'\n{"image_id": "\xff"}\n')
        ann_path.write_text("")
        assert detections._sniff(det_path)[0] == "native"
        with pytest.raises(ParseError, match=r"d\.jsonl:2"):
            load_dataset(det_path, ann_path)

    def test_coco_file(self, tmp_path):
        det_path, ann_path = tmp_path / "det.json", tmp_path / "ann.json"
        det_path.write_text("[]")
        ann_path.write_bytes(b'{\n  "images": [],\n  "info": "\xff"\n}\n')
        assert detections._sniff(ann_path)[0] == "coco"
        with pytest.raises(ParseError, match=r"ann\.json:3"):
            load_dataset(det_path, ann_path)


class TestLineCount:
    """The line count that sizes a read's columns splits lines as the text reader does."""

    CONTENTS = [
        b"", b"\n", b"\r", b"\r\n", b"a", b"a\rb", b"a\r\r\nb\n", b"\r\r\r", b"\n\n\r\n\r", b"\xff\r\xc3\n",
        # Line ends around the block edge: a "\r\n" split between two blocks ends one line.
        *(b"x" * (detections._COUNT_BYTES + offset) + end + tail for offset in (-2, -1, 0) for tail in (b"", b"y")
          for end in (b"\r\n", b"\r\r\n", b"\r\r", b"\n\r", b"\r\n\n")),
    ]

    @pytest.mark.parametrize("content", CONTENTS)
    def test_counts_universal_newlines(self, tmp_path, content):
        path = tmp_path / "f.jsonl"
        path.write_bytes(content)
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            assert detections._count_lines(path) == sum(1 for _ in fh)

    def test_more_records_than_counted_lines(self, tmp_path):
        """Records past the count, as in a file that grew while it was read, are all read."""
        samples = random_matched_samples(np.random.default_rng(6), 3000)
        path = tmp_path / "m.jsonl"
        write_matched_samples(columns(samples), path)
        with mock.patch.object(matching, "_count_lines", return_value=2):
            assert_same_columns(read_matched_samples(path), columns(samples))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_once(self, tmp_path):
        """A pipe is not counted, which would consume it, but read into growing columns."""
        samples = random_matched_samples(np.random.default_rng(7), 2500)
        path, fifo = tmp_path / "m.jsonl", tmp_path / "fifo"
        write_matched_samples(columns(samples), path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        try:
            got = read_matched_samples(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert_same_columns(got, columns(samples))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_read_across_count_blocks(self, tmp_path, newline):
        """A matched file of several count blocks, with blank lines, reads as its records."""
        samples = random_matched_samples(np.random.default_rng(5), 700)
        path = tmp_path / "m.jsonl"
        write_matched_samples(columns(samples), path)
        lines = path.read_text().splitlines()
        lines[100:100] = ["", "  "]
        path.write_bytes(newline.join(lines).encode())
        assert path.stat().st_size > 2 * detections._COUNT_BYTES
        assert_same_columns(read_matched_samples(path), columns(samples))


class TestImageRecord:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValidationError):
            ImageRecord(1, 0, 100)

    def test_integral_float_sides_become_ints(self):
        image = ImageRecord("a", 640.0, 480)
        assert (image.width_px, image.height_px) == (640, 480)
        assert type(image.width_px) is int

    # Each would otherwise load as another image: int() truncates 100.9,
    # takes True as 1 and '7' as 7, and None is no image id. No float holds
    # a side of 10**400 pixels, which COCO boxes are converted against.
    @pytest.mark.parametrize(
        "image_id, width, height",
        [(1, 100.9, 50), (1, True, 50), (1, 50, "7"), (None, 3, 4), (1, 10**400, 50)],
        ids=["fractional-width", "bool-width", "string-height", "null-id", "width-past-a-float"],
    )
    def test_rejected_in_both_annotation_loaders(self, tmp_path, image_id, width, height):
        with pytest.raises(ValidationError):
            ImageRecord(image_id, width, height)
        det_path, ann_path = write_coco(
            tmp_path, [{"id": image_id, "width": width, "height": height}], [], BASE_CATEGORIES, []
        )
        with pytest.raises(ValidationError, match=r"ann\.json: invalid image"):
            load_dataset(det_path, ann_path)
        native_det, native_ann = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        native_det.write_text("")
        native_ann.write_text(
            json.dumps({"image": {"image_id": image_id, "width_px": width, "height_px": height}}) + "\n"
        )
        with pytest.raises(ValidationError, match=r"a\.jsonl:1: "):
            load_dataset(native_det, native_ann, fmt="native")
        for det, ann in ((det_path, ann_path), (native_det, native_ann)):
            assert cli.main(["match", "--detections", str(det), "--annotations", str(ann),
                             "--iou", "0.5", "--out", str(tmp_path / "m.jsonl")]) == 2


# Valid inputs of each loader; the property below edits one entry of one.
NATIVE_DETECTIONS = [GOOD_DETECTION, {**GOOD_DETECTION, "image_id": 1, "score": 0.25}]
NATIVE_ANNOTATIONS = [
    {"image": {"image_id": 0, "width_px": 10, "height_px": 10}},
    {"image": {"image_id": 1, "width_px": 20, "height_px": 10}},
    {"category": {"id": 1, "name": "car"}},
    GOOD_OBJECT,
    {**GOOD_OBJECT, "image_id": 1, "crowd_flag": True},
]
COCO_RESULTS = [
    {"image_id": 1, "category_id": 7, "bbox": [12, 20, 30, 40], "score": 0.9},
    {"image_id": 2, "category_id": 7, "bbox": [0, 0, 5, 5], "score": 0.1},
]
COCO_ANNOTATIONS = {
    "images": [*BASE_IMAGES, {"id": 2, "width": 50, "height": 50}],
    "annotations": [{"image_id": 1, "category_id": 7, "bbox": [10, 20, 30, 40], "iscrowd": 0},
                    {"image_id": 2, "category_id": 7, "bbox": [1, 1, 4, 4], "iscrowd": 1}],
    "categories": BASE_CATEGORIES,
}


def _entries(value, path=()):
    """Paths to every entry nested in ``value``, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _entries(child, path + (key,))


_REMOVE = object()


@st.composite
def edited(draw, document):
    """``document`` with one nested entry replaced by arbitrary JSON or removed, or unchanged.

    Small numbers are drawn often, as they make ids that miss a table and
    boxes that leave the image.
    """
    document = json.loads(json.dumps(document))
    path = draw(st.sampled_from([None, *_entries(document)]))
    if path is not None:
        owner = document
        for key in path[:-1]:
            owner = owner[key]
        value = draw(st.just(_REMOVE) | st.integers(-3, 300) | st.floats(-1.0, 2.0) | JSON_VALUES)
        if value is _REMOVE:
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
    return document


def _json_lines(records) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


# (fuzzed side, counterpart file name and bytes, strategy for the fuzzed file's bytes)
LOADER_CASES = {
    "native detections": ("det", ("a.jsonl", _json_lines(NATIVE_ANNOTATIONS)),
                          edited(NATIVE_DETECTIONS).map(_json_lines)),
    "native annotations": ("ann", ("d.jsonl", _json_lines(NATIVE_DETECTIONS)),
                           edited(NATIVE_ANNOTATIONS).map(_json_lines)),
    "coco detections": ("det", ("ann.json", json.dumps(COCO_ANNOTATIONS).encode()),
                        edited(COCO_RESULTS).map(lambda d: json.dumps(d, indent=1).encode())),
    "coco annotations": ("ann", ("det.json", json.dumps(COCO_RESULTS).encode()),
                         edited(COCO_ANNOTATIONS).map(lambda d: json.dumps(d).encode())),
}
ARBITRARY_FILES = (
    st.lists(JSON_VALUES, max_size=4).map(_json_lines)
    | JSON_VALUES.map(lambda v: json.dumps(v).encode())
    | st.lists(st.binary(max_size=32), max_size=4).map(b"\n".join)
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(LOADER_CASES)),
       fmt=st.sampled_from(["auto", "auto", "native", "coco"]), on_invalid=st.sampled_from(["fail", "skip"]))
def test_loaders_succeed_or_name_the_file(tmp_path_factory, data, case, fmt, on_invalid):
    """Any detection or annotation file loads, or fails with exit code 2 naming a file."""
    side, (other_name, other_bytes), contents = LOADER_CASES[case]
    base = tmp_path_factory.mktemp("loader")
    fuzzed = base / ("fuzzed.json" if "coco" in case else "fuzzed.jsonl")
    fuzzed.write_bytes(data.draw(contents | ARBITRARY_FILES))
    other = base / other_name
    other.write_bytes(other_bytes)
    det_path, ann_path = (fuzzed, other) if side == "det" else (other, fuzzed)
    try:
        load_dataset(det_path, ann_path, fmt=fmt, on_invalid=on_invalid)
    except DetcalError as exc:
        assert isinstance(exc, DataError) and exc.exit_code == 2, repr(exc)
        assert str(fuzzed) in str(exc) or str(other) in str(exc), str(exc)


# ---------------------------------------------------------------------------
# COCO documents: the column checks against the per-record reference loader


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _load(det_path, ann_path, on_invalid="fail", *, reference=False):
    """What ``load_dataset`` gives for a COCO pair, floats as ``float.hex``, with its warnings.

    ``reference`` loads the pair record by record instead (``reference_load_coco``).
    """
    handler = _Messages()
    detections.logger.addHandler(handler)
    try:
        load = reference_load_coco if reference else functools.partial(load_dataset, fmt="coco")
        dets, ground_truth, categories = load(det_path, ann_path, on_invalid=on_invalid)
    except Exception as exc:
        return type(exc), str(exc), handler.messages
    finally:
        detections.logger.removeHandler(handler)
    return (
        [(d.image_id, type(d.image_id), d.category_id, type(d.category_id), d.score.hex(),
          _hex_box(d.box)) for d in dets],
        [(g.image_id, type(g.image_id), g.category_id, type(g.category_id), _hex_box(g.box),
          type(g.crowd_flag), g.crowd_flag) for g in ground_truth],
        categories,
        handler.messages,
    )


def _array_loaded(det_path, ann_path, fmt="coco") -> bool:
    """Whether ``load_dataset`` loads the pair, or ``read_matched_samples`` the matched file
    ``det_path`` (``fmt="matched"``), without running a checked constructor.

    Image records, which native annotation files give one per line, do not count.
    """
    with constructor_calls() as calls:
        try:
            if fmt == "matched":
                read_matched_samples(det_path)
            else:
                load_dataset(det_path, ann_path, fmt=fmt)
        except DataError:
            pass
    return not set(calls) - {"image records"}


def _coordinate(size):
    return st.integers(0, size // 2) | st.floats(-0.03 * size, size / 2) | st.sampled_from([-0.0, -0.02 * size])


def _extent(size):
    return st.integers(1, max(1, size // 2)) | st.floats(0.0, size / 2)


@st.composite
def coco_documents(draw):
    """A COCO annotation document and results array on one to three images, mostly valid."""
    ids = draw(st.lists(st.integers(0, 3) | st.sampled_from(["a", "b"]), min_size=1, max_size=3,
                        unique=True))
    images = [{"id": i, "width": draw(st.integers(1, 640)), "height": draw(st.integers(1, 480))}
              for i in ids]

    def record():
        image = draw(st.sampled_from(images))
        bbox = [draw(_coordinate(image["width"])), draw(_coordinate(image["height"])),
                draw(_extent(image["width"])), draw(_extent(image["height"]))]
        return {"image_id": image["id"], "category_id": draw(st.integers(1, 2)), "bbox": bbox}

    annotations = []
    for _ in range(draw(st.integers(0, 3))):
        rec = record()
        crowd = draw(st.sampled_from([_REMOVE, 0, 1, True, False]))
        if crowd is not _REMOVE:
            rec["iscrowd"] = crowd
        annotations.append(rec)
    results = [{**record(), "score": draw(st.sampled_from([0, 1]) | st.floats(0.0, 1.0))}
               for _ in range(draw(st.integers(0, 4)))]
    return {"images": images, "annotations": annotations}, results


@settings(max_examples=300, deadline=None)
@given(data=st.data(), edit=st.sampled_from(["annotations", "results"]),
       on_invalid=st.sampled_from(["fail", "skip"]))
def test_coco_array_path_matches_the_record_loop(tmp_path_factory, data, edit, on_invalid):
    """The loader gives the reference loop's records bit for bit, or its error and warnings."""
    doc, results = data.draw(coco_documents())
    if edit == "annotations":
        doc = data.draw(edited(doc))
    else:
        results = data.draw(edited(results))
    base = tmp_path_factory.mktemp("coco")
    ann_path, det_path = base / "ann.json", base / "det.json"
    ann_path.write_text(json.dumps(doc))
    det_path.write_text(json.dumps(results))
    assert _load(det_path, ann_path, on_invalid) == _load(det_path, ann_path, on_invalid, reference=True)


@settings(max_examples=200, deadline=None)
@given(document=coco_documents())
def test_coco_tables_iterate_to_the_per_record_loaders_records(tmp_path_factory, document):
    """The loaded tables read as the records the checked constructors build, bit for bit."""
    doc, results = document
    sizes = {image["id"]: (image["width"], image["height"]) for image in doc["images"]}
    base = tmp_path_factory.mktemp("coco")
    ann_path, det_path = base / "ann.json", base / "det.json"
    ann_path.write_text(json.dumps(doc))
    det_path.write_text(json.dumps(results))
    try:
        truth = [GroundTruthObject(a["image_id"], a["category_id"],
                                   reference_box_from_absolute(a["bbox"], *sizes[a["image_id"]]),
                                   bool(a.get("iscrowd", 0))) for a in doc["annotations"]]
        expected = [Detection(r["image_id"], r["category_id"], r["score"],
                              reference_box_from_absolute(r["bbox"], *sizes[r["image_id"]])) for r in results]
    except ValidationError:
        with pytest.raises(ValidationError):
            load_dataset(det_path, ann_path, fmt="coco")
        return
    loaded, ground_truth, _ = load_dataset(det_path, ann_path, fmt="coco")
    assert type(loaded) is DetectionTable and type(ground_truth) is GroundTruthTable
    # Every record exists before record_bits reads one (see above).
    read = list(loaded), list(ground_truth)
    assert [record_bits(rec) for rec in read[0]] == [record_bits(rec) for rec in expected]
    assert [record_bits(rec) for rec in read[1]] == [record_bits(rec) for rec in truth]


EDGE_IMAGES = [*BASE_IMAGES, {"id": "img-2", "width": 50, "height": 50}]
EDGE_ANNOTATION = {"image_id": 1, "category_id": 7, "bbox": [10.5, 20, 30, 40], "iscrowd": 0}
EDGE_RESULT = {"image_id": 1, "category_id": 7, "bbox": [12.25, 20, 30, 40], "score": 0.9}
TOLERANCE_PX = EDGE_CLAMP_TOLERANCE * 100  # of BASE_IMAGES' 100-pixel width


class TestCocoArrayPath:
    """Edge cases of the column checks: they accept what the record loop accepts, with its records.

    ``valid`` pairs load with no checked constructor run; the others fail
    with the loop's error, or are skipped with its warning.
    """

    @pytest.mark.parametrize(
        "side, change, valid",
        [
            ("results", {"bbox": [-0.0, -0.0, 10, 10]}, True),
            ("annotations", {"bbox": [-0.0, 5, 10, 10]}, True),
            ("results", {"bbox": [-TOLERANCE_PX, 0, 10, 10]}, True),
            ("annotations", {"bbox": [90 + TOLERANCE_PX, 0, 10, 10]}, True),
            ("results", {"bbox": [-TOLERANCE_PX - 0.5, 0, 10, 10]}, False),
            ("results", {"bbox": [10, 20, 30, 40]}, True),
            ("results", {"category_id": True}, False),
            ("results", {"category_id": "7"}, False),
            ("annotations", {"category_id": 7.0}, True),
            ("annotations", {"iscrowd": True}, True),
            ("annotations", {"iscrowd": 2}, True),
            ("annotations", {"iscrowd": _REMOVE}, True),
            ("annotations", {"iscrowd": "yes"}, False),
            ("results", {"image_id": "img-2", "bbox": [0, 0, 50, 50]}, True),
            ("results", {"image_id": "img-3"}, False),
            ("annotations", {"image_id": 3}, False),
            ("results", {"score": 0}, True),
            ("results", {"score": 1}, True),
            ("results", {"score": 1.0}, True),
            ("results", {"category_id": INT64_MAX}, True),
            ("results", {"category_id": INT64_MIN}, True),
            ("results", {"category_id": INT64_MAX + 1}, False),
            ("annotations", {"category_id": INT64_MAX + 1}, False),
            ("results", {"bbox": [12.25, "20", 30, 40]}, False),
            ("results", {"bbox": "1234"}, False),
            ("results", {"score": True}, False),
            ("annotations", {"iscrowd": 0.5}, False),
            ("results", {"image_id": True}, False),
            ("results", {"image_id": 1.0}, False),
            ("annotations", {"image_id": True}, False),
            ("annotations", {"image_id": 1.0}, False),
        ],
        ids=["neg-zero-result", "neg-zero-annotation", "tolerance-left", "tolerance-right",
             "past-tolerance", "int-bbox", "bool-category", "str-category", "float-category",
             "bool-crowd", "int-crowd", "no-crowd", "str-crowd", "str-image-id",
             "unknown-str-image-id", "unknown-image-id", "score-int-0", "score-int-1", "score-1.0",
             "category-int64-max", "category-int64-min", "category-past-int64",
             "annotation-category-past-int64", "str-bbox-entry", "str-bbox", "bool-score",
             "fractional-crowd", "bool-image-id", "float-image-id", "bool-annotation-image-id",
             "float-annotation-image-id"],
    )
    def test_edge_case(self, tmp_path, side, change, valid):
        annotation, result = dict(EDGE_ANNOTATION), dict(EDGE_RESULT)
        for key, value in change.items():
            rec = annotation if side == "annotations" else result
            if value is _REMOVE:
                del rec[key]
            else:
                rec[key] = value
        det_path, ann_path = write_coco(tmp_path, EDGE_IMAGES, [annotation], [], [result])
        assert _array_loaded(det_path, ann_path) == valid
        for on_invalid in ("fail", "skip"):
            reference = _load(det_path, ann_path, on_invalid, reference=True)
            assert _load(det_path, ann_path, on_invalid) == reference
            if on_invalid == "fail":
                assert isinstance(reference[0], list) == valid

    def test_bool_and_float_image_ids_do_not_alias_an_int(self, tmp_path, caplog):
        """Results on images ``true`` and ``1.0`` loaded as image 1 before, and ``true`` claimed its annotation."""
        results = [{**EDGE_RESULT, "image_id": True}, {**EDGE_RESULT, "image_id": 1.0}]
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, [EDGE_ANNOTATION], BASE_CATEGORIES, results)
        with pytest.raises(ValidationError, match=r"det\.json: result #0: image_id must be a string or an integer"):
            load_dataset(det_path, ann_path)
        assert cli.main(["match", "--detections", str(det_path), "--annotations", str(ann_path),
                         "--iou", "0.5", "--out", str(tmp_path / "m.jsonl")]) == 2
        assert f"{det_path}: result #0" in caplog.text
        caplog.clear()
        loaded, ground_truth, _ = load_dataset(det_path, ann_path, on_invalid="skip")
        assert len(loaded) == 0 and len(ground_truth) == 1
        assert [r.getMessage() for r in caplog.records][:2] == [
            f"skipping {det_path}: result #{i}: image_id must be a string or an integer, got {v!r}"
            for i, v in enumerate((True, 1.0))]

    def test_overhang_at_tolerance_is_clamped(self, tmp_path):
        result = {**EDGE_RESULT, "bbox": [-TOLERANCE_PX, 0, 10, 10]}
        det_path, ann_path = write_coco(tmp_path, EDGE_IMAGES, [], [], [result])
        (det,), _, _ = load_dataset(det_path, ann_path)
        assert det.box == box_from_absolute([0, 0, 10 - TOLERANCE_PX, 10], 100, 200)

    def test_large_document_takes_the_array_path(self, tmp_path):
        rng = np.random.default_rng(5)
        xy = rng.uniform(0.0, 80.0, (2000, 2))
        results = [{"image_id": 1, "category_id": 7, "bbox": [x, y, 10.0, 20.0], "score": s}
                   for (x, y), s in zip(xy.tolist(), rng.random(2000).tolist())]
        det_path, ann_path = write_coco(tmp_path, BASE_IMAGES, [EDGE_ANNOTATION], BASE_CATEGORIES, results)
        assert _array_loaded(det_path, ann_path)
        loaded = _load(det_path, ann_path)
        assert len(loaded[0]) == 2000 and loaded == _load(det_path, ann_path, reference=True)


# ---------------------------------------------------------------------------
# Native annotation files: the column checks against the per-record reference loader


def _table_bits(table) -> tuple:
    """A table's ids with their types, and its arrays' dtypes and bytes."""
    ids = tuple((type(i), repr(i)) for i in table.image_id)
    return ids, *((c.dtype, c.tobytes()) for c in table._columns()[1:])


def _annotations(path, on_invalid, *, reference=False):
    """Images, ground truth (as :func:`_table_bits`) and categories of a native annotation file, with the
    warnings logged; or the type and message of the error it raises, with the warnings before it.

    ``reference`` loads the file line by line instead (``reference_native_annotations``).
    """
    handler = _Messages()
    detections.logger.addHandler(handler)
    try:
        if reference:
            images, ground_truth, categories = reference_native_annotations(path, on_invalid)
            ground_truth = GroundTruthTable.from_records(ground_truth)
        else:
            images, ground_truth, categories = detections._load_native_annotations(path, _RecordPolicy(on_invalid))
    except Exception as exc:
        return type(exc), str(exc), handler.messages
    finally:
        detections.logger.removeHandler(handler)
    return ([(type(i), i, image) for i, image in images.items()], _table_bits(ground_truth),
            list(categories.items()), handler.messages)


_IMAGE_IDS = st.integers(0, 20) | st.sampled_from(["a", "b"])
# Mostly valid boxes, and boxes on and past the image's edges.
_CENTERS = st.floats(0.2, 0.8) | st.sampled_from([0.0, 0.01, 0.99, 1.0, -0.01, 1.05])
_SIZES = st.floats(0.01, 0.3) | st.sampled_from([0.0, 0.02, 1.0])
# Lines that do not parse, parse to no object, or name a kind with no record.
_MALFORMED = st.sampled_from(["{not json", "[1, 2]", "null", "", "  ", '{"image": null}', '{"category": [1]}'])


@st.composite
def _annotation_lines(draw):
    """One line of a native annotation file: an image, category or object record, one edited, or a
    malformed line. Image ids are drawn from a few, so that images repeat."""
    kind = draw(st.sampled_from(["image", "category", "object", "object", "object", "edited", "malformed"]))
    if kind == "malformed":
        return draw(_MALFORMED)
    records = {
        "image": {"image": {"image_id": draw(_IMAGE_IDS), "width_px": draw(st.integers(1, 40)),
                            "height_px": draw(st.integers(1, 40))}},
        "category": {"category": {"id": draw(st.integers(0, 3)), "name": draw(st.sampled_from(["car", "bus"]))}},
        "object": {"image_id": draw(_IMAGE_IDS), "category_id": draw(st.integers(0, 3)),
                   "box": {"cx": draw(_CENTERS), "cy": draw(_CENTERS), "w": draw(_SIZES), "h": draw(_SIZES)}},
    }
    crowd = draw(st.sampled_from([_REMOVE, True, False, 0, 2]))
    if crowd is not _REMOVE:
        records["object"]["crowd_flag"] = crowd
    if kind == "edited":
        return json.dumps(draw(edited(draw(st.sampled_from(list(records.values()))))))
    return json.dumps(records[kind])


@st.composite
def native_annotation_files(draw):
    """A native annotation file: drawn lines at its start and on both sides of the first chunk boundary,
    with valid object lines between."""
    head, before, after = (draw(st.lists(_annotation_lines(), max_size=size)) for size in (3, 6, 6))
    fill = [json.dumps(GOOD_OBJECT)] * (detections._CHUNK_LINES - len(head) - len(before))
    return "\n".join(head + fill + before + after) + "\n"


@settings(max_examples=100, deadline=None)
@given(content=native_annotation_files())
def test_native_annotation_columns_match_the_record_loop(tmp_path_factory, content):
    """The loader gives the reference loop's images, table and categories bit for bit, or its first error,
    with its warnings, under either policy."""
    path = tmp_path_factory.mktemp("native") / "a.jsonl"
    path.write_text(content)
    for on_invalid in ("fail", "skip"):
        assert _annotations(path, on_invalid) == _annotations(path, on_invalid, reference=True)


@pytest.mark.parametrize("lines, failing, skipping, warned", [
    (["object", "bad image", "bad object"], 2, 2, 0),
    (["bad object", "bad image"], 1, 2, 1),
    (["image", "bad category", "bad object"], 2, 2, 0),
    (["image", "object", "image"], 3, 3, 0),
    (["bad object", "object", "bad object"], 1, None, 2),
])
def test_first_bad_line_wins_whatever_its_kind(tmp_path, lines, failing, skipping, warned):
    """The first bad line raises, whatever its kind; under skip, only the bad object lines before a bad
    image or category line are warned about."""
    records = {"object": GOOD_OBJECT, "bad object": {**GOOD_OBJECT, "category_id": "x"},
               "image": NATIVE_ANNOTATIONS[0], "bad category": {"category": {"id": 1.5}},
               "bad image": {"image": {"image_id": 5, "width_px": 0, "height_px": 1}}}
    path = tmp_path / "a.jsonl"
    path.write_text("".join(json.dumps(records[line]) + "\n" for line in lines))
    for on_invalid, line in (("fail", failing), ("skip", skipping)):
        got = _annotations(path, on_invalid)
        assert got == _annotations(path, on_invalid, reference=True)
        if line is None:
            assert len(got[1][0]) == lines.count("object")
        else:
            assert got[0] is ValidationError and got[1].startswith(f"{path}:{line}: ")
    assert len(got[-1]) == warned


# Bytes of one chunk's text and objects, as the matched-file memory tests allow.
CHUNK_ALLOWANCE = 2_000_000


def test_annotation_read_holds_one_chunk(tmp_path):
    """On 20,000 objects the peak is the ground-truth table plus one chunk plus the image table, not a
    record per object."""
    rng = np.random.default_rng(12)
    boxes = np.vstack([rng.uniform(0.2, 0.8, (2, 20_000)), rng.uniform(0.01, 0.3, (2, 20_000))]).T
    path = tmp_path / "a.jsonl"
    with open(path, "w") as fh:
        for i in range(2_500):
            fh.write(json.dumps({"image": {"image_id": i, "width_px": 640, "height_px": 480}}) + "\n")
        for k, box in enumerate(boxes.tolist()):
            obj = {"image_id": k % 2_500, "category_id": 1, "box": dict(zip(("cx", "cy", "w", "h"), box))}
            fh.write(json.dumps({**obj, "crowd_flag": k % 20 == 0}) + "\n")
    tracemalloc.start()
    try:
        images, ground_truth, _ = detections._load_native_annotations(path, _RecordPolicy("fail"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ground_truth) == 20_000 and len(images) == 2_500
    ids = ground_truth.image_id
    table = sys.getsizeof(ids) + sum(map(sys.getsizeof, ids)) + sum(c.nbytes for c in ground_truth._columns()[1:])
    image_table = sys.getsizeof(images) + sum(
        sys.getsizeof(im) + sys.getsizeof(vars(im)) + sum(map(sys.getsizeof, vars(im).values()))
        for im in images.values())
    # The file holds about 150 bytes an object, a table about 80, and records about 400.
    assert peak < table + image_table + CHUNK_ALLOWANCE


# ---------------------------------------------------------------------------
# One path per format: the checked constructors build only the rejected records


def _native_files(tmp_path, n, bad=()):
    """A native detection file of ``n`` rows on 50 images, and an annotation file of the 50 images and
    ``n`` objects; rows ``bad`` of each are invalid."""
    rng = np.random.default_rng(11)
    det_path, ann_path = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
    detections = [s.detection for s in random_matched_samples(rng, n)]
    rows = [{**asdict(d), "image_id": i % 50} for i, d in enumerate(detections)]
    objects = [{"image_id": i % 50, "category_id": 1 + i % 3, "box": row["box"], "crowd_flag": i % 9 == 0}
               for i, row in enumerate(rows)]
    for i, change in zip(bad, [{"score": 1.5}, {"category_id": "3"}, {"image_id": 99}]):
        rows[i].update(change)
    # Each bad object fails its constructor's own checks.
    for i, change in zip(bad, [{"category_id": "3"}, {"crowd_flag": "no"}, {"image_id": 1.5}]):
        objects[i].update(change)
    det_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    images = [{"image": {"image_id": i, "width_px": 640, "height_px": 480}} for i in range(50)]
    ann_path.write_text("".join(json.dumps(r) + "\n" for r in images + objects))
    return det_path, ann_path


def _coco_files(tmp_path, n, bad=()):
    """A COCO results array of ``n`` rows on one image, rows ``bad`` invalid, and its annotation document."""
    rng = np.random.default_rng(5)
    xy = rng.uniform(0.0, 80.0, (n, 2))
    results = [{"image_id": 1, "category_id": 7, "bbox": [x, y, 10.0, 20.0], "score": s}
               for (x, y), s in zip(xy.tolist(), rng.random(n).tolist())]
    for i, change in zip(bad, [{"score": 1.5}, {"bbox": [0, 0, "20", 10]}, {"image_id": 99}]):
        results[i].update(change)
    return write_coco(tmp_path, BASE_IMAGES, [EDGE_ANNOTATION], BASE_CATEGORIES, results)


def test_large_valid_jsonl_files_build_no_record(tmp_path):
    det_path, ann_path = _native_files(tmp_path, 2000)
    assert _array_loaded(det_path, ann_path, "native")
    with constructor_calls() as calls:
        loaded, ground_truth, _ = load_dataset(det_path, ann_path, fmt="native")
    assert calls["GroundTruthObject"] == 0 and len(ground_truth) == len(loaded) == 2000
    matched = tmp_path / "m.jsonl"
    write_matched_samples(random_matched_samples(np.random.default_rng(2), 2000), matched)
    assert _array_loaded(matched, None, "matched")


@pytest.mark.parametrize("fmt", ["native", "coco"])
def test_skip_builds_only_the_bad_records(tmp_path, fmt, caplog):
    """On 5,000 rows with 3 bad ones, in each native file or in the COCO results, the constructors run 3
    times per file and warn as the per-record loop does."""
    bad = (17, 2500, 4999)
    det_path, ann_path = (_native_files if fmt == "native" else _coco_files)(tmp_path, 5000, bad)
    with constructor_calls() as calls:
        loaded, ground_truth, _ = load_dataset(det_path, ann_path, fmt=fmt, on_invalid="skip")
    kind = "detection" if fmt == "native" else "result"
    assert calls[f"{kind} records"] == 3 and len(loaded) == 4997
    warnings = [r.getMessage() for r in caplog.records]
    caplog.clear()
    if fmt == "native":
        assert calls["annotation records"] == calls["GroundTruthObject"] == 3 and len(ground_truth) == 4997
        images, truth, _ = reference_native_annotations(ann_path, "skip")
        expected = reference_native_detections(det_path, images, "skip")
        assert ground_truth == truth
        skipped = 6
    else:
        expected = reference_load_coco(det_path, ann_path, "skip")[0]
        skipped = 3
    assert warnings[:skipped] == [r.getMessage() for r in caplog.records][:skipped]
    assert len(warnings) == skipped + 1 and warnings[skipped] == f"skipped {skipped} invalid records"
    assert loaded == expected
