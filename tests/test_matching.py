import json
import math
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcal import matching
from detcal.cli import main as cli_main
from detcal.detections import (
    BoxGeometry,
    Detection,
    GroundTruthObject,
    box_from_absolute,
    load_dataset,
)
from detcal.errors import DataError, ParseError, UsageError, ValidationError
from detcal.matching import (
    MatchedSample,
    SampleColumns,
    columns,
    iou,
    match_detections,
    pair_iou,
    read_matched_samples,
    write_matched_samples,
)
from detcal.synth import generate, make_scenario
from oracles import (
    assert_same_columns,
    constructor_calls,
    greedy_match,
    random_matched_samples,
    reference_read_matched_samples,
)
from strategies import JSON_VALUES


def det(score, box, image_id=0, category_id=1):
    return Detection(image_id, category_id, score, BoxGeometry(*box))


def gt(box, image_id=0, category_id=1, crowd=False):
    return GroundTruthObject(image_id, category_id, BoxGeometry(*box), crowd_flag=crowd)


def random_box(rng):
    cx, cy = rng.uniform(0.2, 0.8, 2)
    w = rng.uniform(0.05, 0.35)
    h = rng.uniform(0.05, 0.35)
    w = min(w, 2 * min(cx, 1 - cx))
    h = min(h, 2 * min(cy, 1 - cy))
    return BoxGeometry(cx, cy, w, h)


class TestIoU:
    def test_identical_boxes(self):
        box = BoxGeometry(0.5, 0.5, 0.4, 0.4)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        a = BoxGeometry(0.2, 0.5, 0.2, 0.2)
        b = BoxGeometry(0.8, 0.5, 0.2, 0.2)
        assert iou(a, b) == 0.0

    def test_hand_computed_overlap(self):
        a = BoxGeometry(0.5, 0.5, 0.4, 0.4)
        b = BoxGeometry(0.6, 0.5, 0.4, 0.4)
        # intersection 0.3*0.4 = 0.12, union 0.32 - 0.12 = 0.20
        assert iou(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_touching_boxes_have_zero_iou(self):
        a = BoxGeometry(0.3, 0.5, 0.2, 0.2)
        b = BoxGeometry(0.5, 0.5, 0.2, 0.2)
        assert iou(a, b) == 0.0


# Identical and touching boxes (on a 0.2 grid), the whole image, boxes clamped
# at an image edge, and arbitrary interior boxes.
PAIR_BOXES = (
    st.sampled_from([BoxGeometry(cx, cy, 0.2, 0.2) for cx in (0.3, 0.5, 0.7) for cy in (0.3, 0.5)]
                    + [BoxGeometry(0.5, 0.5, 1.0, 1.0), BoxGeometry(0.1, 0.9, 0.2, 0.2)])
    | st.builds(lambda x, y, w, h: box_from_absolute([x, y, w, h], 100, 80),
                st.floats(-2.0, 60.0), st.floats(-1.6, 50.0), st.floats(3.0, 40.0), st.floats(2.0, 30.0))
    | st.builds(BoxGeometry, st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.01, 0.2), st.floats(0.01, 0.2))
)


def _box_columns(boxes):
    return tuple(np.array([getattr(b, name) for b in boxes]) for name in ("cx", "cy", "w", "h"))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(PAIR_BOXES, PAIR_BOXES), min_size=1, max_size=8))
def test_pair_iou_equals_iou_bit_for_bit(pairs):
    a, b = ([pair[side] for pair in pairs] for side in (0, 1))
    values = pair_iou(_box_columns(a), _box_columns(b))
    assert [v.hex() for v in values.tolist()] == [iou(x, y).hex() for x, y in pairs]
    assert (pair_iou(_box_columns(a), _box_columns(a)) == 1.0).all()


# Raw box columns that no BoxGeometry holds: zeros, infinities, NaN,
# denormals, negative and overflowing sizes, besides boxes inside the image.
RAW_COORDINATES = (
    st.floats(0.0, 1.0)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                       np.inf, -np.inf, np.nan])
)
RAW_BOXES = st.tuples(*[RAW_COORDINATES] * 4)


def _nudged(box, ulps):
    """``box`` with each coordinate moved by its number of units in the last place."""
    out = []
    for v, k in zip(box, ulps):
        for _ in range(abs(k)):
            v = math.nextafter(v, math.copysign(math.inf, k))
        out.append(v)
    return tuple(out)


RAW_PAIRS = st.tuples(RAW_BOXES, RAW_BOXES) | st.builds(
    lambda box, ulps: (box, _nudged(box, ulps)), RAW_BOXES, st.tuples(*[st.integers(-3, 3)] * 4)
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(RAW_PAIRS, min_size=1, max_size=8))
def test_pair_iou_is_nan_or_in_the_unit_interval(pairs):
    """For positive sizes, inter <= min(area) <= fl(area_a + area_b) / 2 <= union, so no IoU exceeds 1."""
    a, b = (tuple(np.array([pair[side][k] for pair in pairs]) for k in range(4)) for side in (0, 1))
    # Non-finite and overflowing columns warn on the way; the property is about the values alone.
    with np.errstate(all="ignore"):
        values = pair_iou(a, b)
    assert (np.isnan(values) | ((values >= 0.0) & (values <= 1.0))).all(), values


class TestMatchDetections:
    def test_exact_overlay(self):
        samples = match_detections([det(0.8, (0.5, 0.5, 0.2, 0.2))], [gt((0.5, 0.5, 0.2, 0.2))], 0.6)
        (s,) = samples
        assert s.matched == 1 and s.iou == 1.0 and s.gt_index == 0

    def test_class_mismatch(self):
        samples = match_detections(
            [det(0.8, (0.5, 0.5, 0.2, 0.2), category_id=1)],
            [gt((0.5, 0.5, 0.2, 0.2), category_id=2)],
            0.6,
        )
        assert samples[0].matched == 0 and samples[0].gt_index is None

    def test_higher_score_wins_single_gt(self):
        detections = [
            det(0.9, (0.48, 0.5, 0.2, 0.2)),
            det(0.8, (0.52, 0.5, 0.2, 0.2)),
        ]
        truth = [gt((0.5, 0.5, 0.2, 0.2))]
        candidates = [iou(d.box, truth[0].box) for d in detections]
        assert min(candidates) >= 0.6
        samples = match_detections(detections, truth, 0.6)
        # Of the two feasible one-to-one assignments, greedy must pick the
        # higher-scoring detection.
        assert [s.matched for s in samples] == [1, 0]

    def test_score_ties_broken_by_input_order(self):
        detections = [
            det(0.8, (0.52, 0.5, 0.2, 0.2)),
            det(0.8, (0.48, 0.5, 0.2, 0.2)),
        ]
        samples = match_detections(detections, [gt((0.5, 0.5, 0.2, 0.2))], 0.5)
        assert [s.matched for s in samples] == [1, 0]

    def test_iou_tie_prefers_lowest_gt_index(self):
        detections = [det(0.9, (0.5, 0.5, 0.2, 0.2))]
        truth = [gt((0.48, 0.5, 0.2, 0.2)), gt((0.52, 0.5, 0.2, 0.2))]
        samples = match_detections(detections, truth, 0.5)
        assert samples[0].gt_index == 0

    def test_threshold_validation(self):
        with pytest.raises(UsageError):
            match_detections([], [], 0.0)
        with pytest.raises(UsageError):
            match_detections([], [], 1.5)
        with pytest.raises(UsageError, match="^iou_threshold must be a real number, got '0.5'"):
            match_detections([], [], "0.5")

    def test_category_absent_from_ground_truth(self):
        samples = match_detections([det(0.9, (0.5, 0.5, 0.2, 0.2), category_id=9)], [], 0.5)
        assert samples[0].matched == 0

    def test_crowd_excluded_by_default(self):
        truth = [gt((0.5, 0.5, 0.2, 0.2), crowd=True)]
        detections = [det(0.9, (0.5, 0.5, 0.2, 0.2))]
        assert match_detections(detections, truth, 0.5)[0].matched == 0
        included = match_detections(detections, truth, 0.5, exclude_crowd=False)
        assert included[0].matched == 1

    def test_output_order_matches_input(self):
        rng = np.random.default_rng(5)
        detections = [det(float(rng.random()), (0.5, 0.5, 0.2, 0.2), image_id=i % 3) for i in range(30)]
        truth = [gt((0.5, 0.5, 0.2, 0.2), image_id=i) for i in range(3)]
        samples = match_detections(detections, truth, 0.5)
        assert [s.detection for s in samples] == detections

    def _random_instance(self, rng):
        def as_tuple(b):
            return (b.cx, b.cy, b.w, b.h)

        n_det = int(rng.integers(1, 6))
        n_gt = int(rng.integers(0, 6))
        detections = [det(float(rng.random()), as_tuple(random_box(rng))) for _ in range(n_det)]
        truth = [gt(as_tuple(random_box(rng))) for _ in range(n_gt)]
        return detections, truth

    def test_injectivity_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            detections, truth = self._random_instance(rng)
            samples = match_detections(detections, truth, 0.3)
            claimed = [s.gt_index for s in samples if s.matched]
            assert len(claimed) == len(set(claimed))
            for s in samples:
                if s.matched:
                    assert s.iou >= 0.3

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            detections, truth = self._random_instance(rng)
            counts = [
                sum(s.matched for s in match_detections(detections, truth, t))
                for t in (0.2, 0.4, 0.6, 0.8)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_gt_permutation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            detections, truth = self._random_instance(rng)
            base = match_detections(detections, truth, 0.3)
            perm = list(rng.permutation(len(truth)))
            shuffled = [truth[j] for j in perm]
            other = match_detections(detections, shuffled, 0.3)
            # With almost surely distinct IoUs the (detection, label) pairs
            # cannot depend on ground-truth input order.
            assert [(s.detection, s.matched) for s in base] == [
                (s.detection, s.matched) for s in other
            ]

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_pair_blocks_leave_the_result_unchanged(self, monkeypatch, block):
        """IoUs computed a block of candidate pairs at a time give the greedy reference's matches."""
        rng = np.random.default_rng(19)
        instances = [self._random_instance(rng) for _ in range(30)]
        monkeypatch.setattr(matching, "_PAIR_BLOCK", block)
        for detections, truth in instances:
            samples = match_detections(detections, truth, 0.3)
            assert [(s.matched, s.iou, s.gt_index) for s in samples] == greedy_match(detections, truth, 0.3, iou)


class TestMatchedSample:
    def test_label_consistency_enforced(self):
        d = det(0.5, (0.5, 0.5, 0.2, 0.2))
        with pytest.raises(ValidationError):
            MatchedSample(d, 1, iou=0.9, gt_index=None)
        with pytest.raises(ValidationError):
            MatchedSample(d, 0, iou=0.0, gt_index=3)
        with pytest.raises(ValidationError):
            MatchedSample(d, 0, iou=0.4, gt_index=None)
        with pytest.raises(ValidationError):
            MatchedSample(d, 2, iou=1.0, gt_index=0)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        samples = random_matched_samples(rng, 200)
        path = tmp_path / "matched.jsonl"
        write_matched_samples(samples, path)
        assert reference_read_matched_samples(path) == samples
        assert_same_columns(read_matched_samples(path), columns(samples))

    def test_raw_scores_column(self, tmp_path):
        rng = np.random.default_rng(29)
        samples = random_matched_samples(rng, 5)
        path = tmp_path / "matched.jsonl"
        write_matched_samples(samples, path, scores=[0.1, 0.2, 0.3, 0.4, 0.5])
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["score"] for r in recs] == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert [r["raw_score"] for r in recs] == [s.detection.score for s in samples]


_MISSING = object()


# Values at the edges of the record contract: bools and numeric strings
# where numbers go, integers just inside and outside int64, negative and
# non-integer ground-truth indices, an integer IoU.
CONTRACT_EDGES = st.sampled_from([True, False, 0, 1, -1, 1.0, 0.5, "1", 2**63 - 1, 2**63, -(2**63), -(2**63) - 1])


def _center(size):
    """A box centre inside, or at either edge of, the image: near an edge the reader clamps or rejects."""
    edge = st.floats(-0.03, 0.03)
    return st.floats(0.2, 0.8) | edge.map(lambda d: size / 2 + d) | edge.map(lambda d: 1 - size / 2 + d)


@st.composite
def matched_records(draw, edit=True):
    """A valid matched record, or (with ``edit``) one with a single field replaced or removed."""
    matched = draw(st.sampled_from([0, 1]))
    w, h = draw(st.floats(0.01, 0.2)), draw(st.floats(0.01, 0.2))
    rec = {
        "image_id": draw(st.integers(0, 3) | st.text(max_size=4)),
        "category_id": draw(st.integers(1, 3)),
        "score": draw(st.floats(0.0, 1.0)),
        "box": {"cx": draw(_center(w)), "cy": draw(_center(h)), "w": w, "h": h},
        "matched": matched,
        "iou": draw(st.floats(0.5, 1.0) | st.just(1)) if matched else 0.0,
        "gt_index": draw(st.integers(0, 5)) if matched else None,
    }
    target = draw(st.sampled_from([None, *rec, *(f"box.{k}" for k in rec["box"])])) if edit else None
    if target is not None:
        owner, key = (rec["box"], target[4:]) if target.startswith("box.") else (rec, target)
        value = draw(st.just(_MISSING) | CONTRACT_EDGES | JSON_VALUES)
        if value is _MISSING:
            del owner[key]
        else:
            owner[key] = value
    return rec


LINE_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def jsonl_files(draw, values=matched_records() | JSON_VALUES):
    """File bytes: JSON values one per line, with mixed line endings and blank lines.

    Text is written with or without ASCII escapes; a lone surrogate in a
    string then becomes bytes that are not UTF-8.
    """
    parts = []
    for value in draw(st.lists(values, max_size=5)):
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(["", " ", "\t "])) + draw(LINE_ENDINGS))
        parts.append(json.dumps(value, ensure_ascii=draw(st.booleans())) + draw(LINE_ENDINGS))
    text = "".join(parts)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8", "surrogatepass")


@st.composite
def byte_files(draw):
    lines = draw(st.lists(st.binary(max_size=48), max_size=4))
    return b"".join(line + draw(LINE_ENDINGS).encode() for line in lines)


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # compared, type and message, with the reference's
        return type(exc), str(exc)


def _reference(path):
    return columns(reference_read_matched_samples(path))


def _read_checked(path):
    """``read_matched_samples(path)``, asserting that no checked constructor ran."""
    with constructor_calls() as calls:
        cols = read_matched_samples(path)
    assert not calls, calls
    return cols


def _read_lines(path):
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return [line for line in fh if line.strip()]


def _check_parity(path, content: bytes):
    """Read ``content`` both ways: the same columns, or the same DataError naming the file.

    Returns the columns, or None for an error.
    """
    path.write_bytes(content)
    fast, ref = _outcome(read_matched_samples, path), _outcome(_reference, path)
    if not isinstance(ref, SampleColumns):
        assert fast == ref
        assert issubclass(ref[0], DataError) and str(path) in ref[1], ref
        return None
    assert isinstance(fast, SampleColumns), fast
    assert_same_columns(fast, ref)
    return fast


class TestReadMatchedSamplesContract:
    """Any file content yields samples or a DataError, never another exception."""

    def test_non_object_line_is_parse_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ParseError, match=r"m\.jsonl:1"):
            read_matched_samples(path)

    def test_bad_score_is_validation_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rec = {"image_id": 0, "category_id": 1, "score": "abc",
               "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}, "matched": 0}
        path.write_text("\n" + json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match=r"m\.jsonl:2: invalid matched record"):
            read_matched_samples(path)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(matched_records() | JSON_VALUES, max_size=4))
    def test_arbitrary_json_lines(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "json_lines.jsonl"
        content = "".join(json.dumps(v) + "\n" for v in lines).encode("utf-8")
        samples = _check_parity(path, content)
        if samples is not None:
            assert len(samples) == len(lines)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.binary(max_size=48), max_size=4))
    def test_arbitrary_bytes(self, tmp_path_factory, lines):
        _check_parity(tmp_path_factory.getbasetemp() / "byte_lines.jsonl", b"\n".join(lines))


class TestColumnarReaderParity:
    """The columnar reader gives the per-record reference reader's columns, or its error."""

    @settings(max_examples=300, deadline=None)
    @given(content=jsonl_files() | byte_files())
    def test_any_file(self, tmp_path_factory, content):
        _check_parity(tmp_path_factory.getbasetemp() / "parity.jsonl", content)

    @settings(max_examples=300, deadline=None)
    @given(valid=st.lists(matched_records(edit=False), max_size=4), edited=matched_records(),
           at=st.integers(0, 4))
    def test_one_edited_record_among_valid_ones(self, tmp_path_factory, valid, edited, at):
        records = valid[:at] + [edited] + valid[at:]
        content = "".join(json.dumps(r) + "\n" for r in records).encode()
        _check_parity(tmp_path_factory.getbasetemp() / "edited.jsonl", content)

    BASE = {"image_id": 0, "category_id": 1, "score": 0.5,
            "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}, "matched": 1, "iou": 0.7, "gt_index": 3}
    # One field per case, set to a value (_MISSING removes it): every check
    # of the per-record reader, each number's type, and the clamp.
    EDITS = [
        *((k, v) for k in ("image_id", "category_id", "score", "box", "matched", "iou", "gt_index")
          for v in (_MISSING, None, True, "1", [1], {})),
        ("image_id", 1.5), ("image_id", "a"), ("image_id", -3),
        ("category_id", 1.5), ("category_id", 2**63), ("category_id", -7),
        ("score", 0), ("score", 1), ("score", -0.1), ("score", 1.1), ("score", float("nan")), ("score", 1e400),
        ("matched", 0), ("matched", 2), ("matched", -1), ("matched", 1.0), ("matched", 0.5),
        ("iou", 0), ("iou", 0.0), ("iou", -0.0), ("iou", 1), ("iou", 1.5), ("iou", -0.1), ("iou", float("nan")),
        ("gt_index", 0), ("gt_index", -1), ("gt_index", 1.0), ("gt_index", 2**63),
        *((f"box.{k}", v) for k in ("cx", "cy", "w", "h")
          for v in (_MISSING, None, True, "0.1", 0, 1, -0.1, 1.5, float("nan"), float("inf"), 2**1100)),
        ("box.cx", 0.04), ("box.cx", 0.03), ("box.cx", 0.96), ("box.cx", 0.97), ("box.cx", 0.0),
        ("box.cy", 0.04), ("box.cy", 0.03), ("box.cy", 0.96), ("box.cy", 0.97), ("box.cy", 1.0),
        ("box.w", 1), ("box.w", 1e-300),
        # Boxes that clamping collapses to zero width or height.
        ("box", {"cx": -0.005, "cy": 0.5, "w": 0.01, "h": 0.1}),
        ("box", {"cx": 0.5, "cy": 1.005, "w": 0.1, "h": 0.01}),
    ]

    @pytest.mark.parametrize("matched", [0, 1])
    @pytest.mark.parametrize("field, value", EDITS)
    def test_single_field_edit(self, tmp_path, matched, field, value):
        rec = json.loads(json.dumps(self.BASE))
        if not matched:
            rec.update(matched=0, iou=0.0, gt_index=None)
        owner, key = (rec["box"], field[4:]) if field.startswith("box.") else (rec, field)
        if value is _MISSING:
            del owner[key]
        else:
            owner[key] = value
        good = json.dumps(rec if matched else self.BASE)
        _check_parity(tmp_path / "m.jsonl", f"{good}\n{json.dumps(rec)}\n".encode())

    # Values that loaded before, coerced: "1", true and 1.7 as label 1, 0.5 as
    # label 0, numeric strings as numbers and true as 1 (a box of full width).
    COERCED = [("matched", 1.7), ("matched", "1"), ("matched", True), ("matched", 0.5), ("score", "0.5"),
               ("score", True), ("box.cx", "0.5"), ("box.w", True), ("iou", True)]

    @pytest.mark.parametrize("field, value", COERCED)
    def test_coerced_value_is_rejected(self, tmp_path, field, value):
        rec = json.loads(json.dumps(self.BASE))
        owner, key = (rec["box"], field[4:]) if field.startswith("box.") else (rec, field)
        owner[key] = value
        path = tmp_path / "m.jsonl"
        path.write_text(f"{json.dumps(self.BASE)}\n{json.dumps(rec)}\n")
        with pytest.raises(ValidationError, match=r"m\.jsonl:2: "):
            read_matched_samples(path)
        assert cli_main(["eval", "--in", str(path), "--features", "conf"]) == 2

    def test_clamped_boxes(self, tmp_path):
        """Boxes overhanging either edge by up to 2% are clamped with the per-record arithmetic."""
        rng = np.random.default_rng(8)
        n = 3000
        w, h = rng.uniform(0.05, 0.3, n), rng.uniform(0.05, 0.3, n)
        side = rng.integers(0, 3, (2, n))
        cx = np.choose(side[0], [w / 2, np.full(n, 0.5), 1 - w / 2]) + rng.uniform(-0.02, 0.02, n)
        cy = np.choose(side[1], [h / 2, np.full(n, 0.5), 1 - h / 2]) + rng.uniform(-0.02, 0.02, n)
        path = tmp_path / "m.jsonl"
        path.write_text("".join(
            json.dumps({"image_id": i, "category_id": 1, "score": 0.5, "matched": 0,
                        "box": {"cx": cx[i], "cy": cy[i], "w": w[i], "h": h[i]}}) + "\n"
            for i in range(n)
        ))
        ref = _reference(path)
        assert not np.array_equal(ref.values[:, 1:], np.column_stack([cx, cy, w, h]))
        assert_same_columns(_read_checked(path), ref)

    @settings(max_examples=200, deadline=None)
    @given(content=jsonl_files(matched_records(edit=False)))
    def test_valid_records_take_the_columnar_path(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "valid.jsonl"
        if _check_parity(path, content) is not None:
            _read_checked(path)

    def test_synth_file_takes_the_columnar_path(self, tmp_path):
        path = tmp_path / "m.jsonl"
        samples = generate(make_scenario("fig3_boundary_decay", 2500, seed=4))
        write_matched_samples(samples, path)
        _sidecar(path).unlink()  # so that the read parses
        ref = _reference(path)
        assert_same_columns(_read_checked(path), ref)
        assert_same_columns(ref, columns(samples))

    @pytest.mark.parametrize("on_invalid", ["fail", "skip"])
    def test_invalid_record_beats_a_later_malformed_line(self, tmp_path, caplog, on_invalid):
        """Line 1,999's error, or under skip its warning, comes before line 2,000's parse error."""
        samples = generate(make_scenario("fig3_boundary_decay", 2500, seed=4))
        det_path, ann_path = tmp_path / "m.jsonl", tmp_path / "a.jsonl"
        write_matched_samples(samples, det_path)
        ann_path.write_text("")
        lines = det_path.read_text().splitlines(keepends=True)
        lines[1998] = lines[1998].replace('"score": ', '"score": 2, "x": ', 1)
        lines[1999] = "{not json\n"
        det_path.write_text("".join(lines))
        if on_invalid == "fail":
            with pytest.raises(ValidationError, match=r"m\.jsonl:1999: score must lie in \[0, 1\]"):
                read_matched_samples(det_path)
            with pytest.raises(ValidationError, match=r"m\.jsonl:1999: score must lie in \[0, 1\]"):
                load_dataset(det_path, ann_path, fmt="native")
        else:
            with pytest.raises(ParseError, match=r"m\.jsonl:2000: malformed JSON"):
                load_dataset(det_path, ann_path, fmt="native", on_invalid="skip")
            assert [r.getMessage() for r in caplog.records] == [
                f"skipping {det_path}:1999: score must lie in [0, 1], got 2.0"]

    def test_error_past_the_first_chunk(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_matched_samples(generate(make_scenario("fig3_boundary_decay", 2500, seed=4)), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1999] = lines[1999].replace('"matched": ', '"matched": 2, "x": ', 1)
        path.write_text("".join(lines))
        with pytest.raises(ValidationError, match=r"m\.jsonl:2000: match label must be 0 or 1"):
            read_matched_samples(path)

    def test_two_objects_on_a_line(self, tmp_path):
        """A line holding two records, offset by a record split over two lines, is still malformed."""
        rec = json.dumps({"image_id": 0, "category_id": 1, "score": 0.5,
                          "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}, "matched": 0})
        path = tmp_path / "m.jsonl"
        path.write_text(f"{rec}, {rec}\n{rec[:-1]}, \"x\": [1\n2]}}\n")
        assert len(json.loads("[" + ",".join(_read_lines(path)) + "]")) == 3
        with pytest.raises(ParseError, match=r"m\.jsonl:1: malformed JSON"):
            read_matched_samples(path)


class TestRecordContract:
    """Ground-truth indices and category ids must fit the int64 columns."""

    BASE = {"image_id": 0, "category_id": 1, "score": 0.5,
            "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}, "matched": 1, "iou": 0.7, "gt_index": 3}

    @pytest.mark.parametrize("field, value", [
        ("gt_index", True), ("gt_index", -1), ("gt_index", 1.0), ("gt_index", "1"), ("gt_index", 2**63),
        ("category_id", 2**63), ("category_id", -(2**63) - 1),
    ])
    def test_rejected(self, tmp_path, field, value):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(self.BASE) + "\n" + json.dumps({**self.BASE, field: value}) + "\n")
        with pytest.raises(ValidationError, match=r"m\.jsonl:2: "):
            read_matched_samples(path)

    @pytest.mark.parametrize("gt_index", [-1, 0])
    def test_unmatched_record_carries_no_index(self, tmp_path, gt_index):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**self.BASE, "matched": 0, "iou": 0.0, "gt_index": gt_index}) + "\n")
        with pytest.raises(ValidationError, match=r"m\.jsonl:1: unmatched sample carries a ground-truth index"):
            read_matched_samples(path)

    @pytest.mark.parametrize("category_id", [2**63 - 1, -(2**63)])
    def test_int64_bounds_accepted(self, tmp_path, category_id):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**self.BASE, "category_id": category_id}) + "\n")
        assert read_matched_samples(path).category_id.tolist() == [category_id]

    def test_integer_iou_is_written_as_float(self, tmp_path):
        path, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
        path.write_text(json.dumps({**self.BASE, "iou": 1}) + "\n")
        cols = read_matched_samples(path)
        assert cols.iou.tolist() == [1.0]
        write_matched_samples(cols, out)
        assert json.loads(out.read_text())["iou"] == 1.0
        assert '"iou": 1.0,' in out.read_text()


class TestWriter:
    def test_non_finite_values_rejected(self, tmp_path):
        cols = columns(random_matched_samples(np.random.default_rng(3), 4))
        values = cols.values.copy(order="F")
        values[2, 3] = np.nan
        bad = SampleColumns(values, cols.matched, cols.category_id, cols.iou, cols.gt_index, cols.image_id)
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValidationError):
            write_matched_samples(bad, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["x", "0.5", True, np.bool_(False), None])
    def test_score_of_another_type_is_refused_by_index(self, tmp_path, bad):
        samples = random_matched_samples(np.random.default_rng(3), 4)
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValidationError, match=r"score at index 2 must be a real number"):
            write_matched_samples(samples, path, scores=[0.5, 0.25, bad, 0.75])
        with pytest.raises(ValidationError, match=r"score at index 2 must be a real number"):
            write_matched_samples(samples, path, scores=np.array([0.5, 0.25, bad, 0.75], dtype=object))
        assert not path.exists()

    @pytest.mark.parametrize("scores, shape", [([[0.5]] * 4, r"shape \(4, 1\)"), (0.5, r"shape \(\)"),
                                               (np.full((2, 2), 0.5), r"shape \(2, 2\)"),
                                               ([[0.5], 0.5, 0.5, 0.5], r"a ragged shape \(4, \.\.\.\)"),
                                               ([[0.5, 0.5], [0.5]] * 2, r"a ragged shape \(4, \.\.\.\)")])
    def test_scores_must_be_one_dimensional(self, tmp_path, scores, shape):
        samples = random_matched_samples(np.random.default_rng(3), 4)
        path = tmp_path / "out.jsonl"
        with pytest.raises(UsageError, match=f"^scores must be one-dimensional, got {shape}$"):
            write_matched_samples(samples, path, scores=scores)
        assert not path.exists()

    def test_score_arrays_of_numbers_are_taken(self, tmp_path):
        samples = random_matched_samples(np.random.default_rng(3), 4)
        by_list, by_array = tmp_path / "list.jsonl", tmp_path / "array.jsonl"
        write_matched_samples(samples, by_list, scores=[0, 1, 0.5, np.float32(0.25)])
        write_matched_samples(samples, by_array, scores=np.array([0, 1, 0.5, 0.25], dtype=np.float32))
        assert by_list.read_bytes() == by_array.read_bytes()

    def test_score_count_must_match(self, tmp_path):
        samples = random_matched_samples(np.random.default_rng(3), 4)
        path = tmp_path / "out.jsonl"
        with pytest.raises(UsageError):
            write_matched_samples(samples, path, scores=[0.5] * 3)
        assert not path.exists()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="needs the int digit limit")
    @pytest.mark.parametrize("ids, row", [((0, 10**4300, 2, 3), 1), (("a", 7, "b", -10**4300), 3)],
                             ids=["ints", "mixed"])
    def test_int_id_past_the_digit_limit_is_refused_before_opening(self, tmp_path, ids, row):
        cols = columns(random_matched_samples(np.random.default_rng(3), 4))
        bad = SampleColumns(cols.values, cols.matched, cols.category_id, cols.iou, cols.gt_index, ids)
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"kept\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValidationError, match=f"image_id of sample {row} has more than 4300 digits"):
                write_matched_samples(bad, path)
        finally:
            sys.set_int_max_str_digits(limit)
        assert path.read_bytes() == b"kept\n"

    def test_json_ids_and_null_index(self, tmp_path):
        box = BoxGeometry(0.5, 0.5, 0.2, 0.2)
        samples = [MatchedSample(det(0.5, (0.5, 0.5, 0.2, 0.2), image_id=i), 0) for i in ("a\u00e9\"", 7, 2**70)]
        path = tmp_path / "out.jsonl"
        write_matched_samples(samples, path)
        expected = "".join(
            json.dumps({"image_id": s.detection.image_id, "category_id": 1, "score": 0.5,
                        "box": {"cx": box.cx, "cy": box.cy, "w": box.w, "h": box.h},
                        "matched": 0, "iou": 0.0, "gt_index": None}) + "\n"
            for s in samples
        )
        assert path.read_text() == expected


# ---------------------------------------------------------------------------
# Streamed files: one chunk of lines is held at a time

# What one chunk of lines may add to a table's own size while it is read or
# written: its text and parsed objects (about 1 kB a line) and the checks' arrays.
CHUNK_ALLOWANCE = 2_000_000


def _table_bytes(cols: SampleColumns) -> int:
    """The size of a table's arrays, its image-id tuple and the ids in it."""
    arrays = sum(getattr(cols, name).nbytes for name in ("values", "matched", "category_id", "iou", "gt_index"))
    return arrays + sys.getsizeof(cols.image_id) + sum(map(sys.getsizeof, cols.image_id))


def _blank_run_file(path, kind: str, newline: str, bad: str) -> int:
    """Five records, 2,100 blank lines, 600 records and a ``bad`` line; returns the bad line's number.

    The blank run covers the whole second chunk of lines, lines 1,025 to
    2,048, and the records after it start inside the third.
    """
    samples = random_matched_samples(np.random.default_rng(41), 605)
    if kind == "native":
        lines = [json.dumps(asdict(s.detection)) for s in samples]
    else:
        write_matched_samples(samples, path)
        lines = path.read_text().splitlines()
    lines[5:5] = [""] * 499 + ["  ", "\t"] + [""] * 1599
    lines.append(bad)
    path.write_bytes(newline.join([*lines, ""]).encode())
    return len(lines)


class TestStreamedFiles:
    def test_read_and_write_hold_one_chunk(self, tmp_path):
        """On 20,000 lines the peak is the table plus one chunk's allowance, not the file's text."""
        path, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
        write_matched_samples(generate(make_scenario("fig3_boundary_decay", 20_000, seed=5)), path)
        _sidecar(path).unlink()  # so that the read parses
        tracemalloc.start()
        try:
            cols = read_matched_samples(path)
            read_peak = tracemalloc.get_traced_memory()[1]
            write_peaks = []
            for scores in (None, np.sqrt(cols.values[:, 0])):
                tracemalloc.reset_peak()
                write_matched_samples(cols, out, scores=scores)
                write_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        table = _table_bytes(cols)
        # The file holds about 220 bytes a line, its table about 108.
        assert path.stat().st_size > 2 * table
        assert read_peak < table + CHUNK_ALLOWANCE
        # The scores array of the second write is held throughout.
        assert write_peaks[0] < table + CHUNK_ALLOWANCE
        assert write_peaks[1] < table + scores.nbytes + CHUNK_ALLOWANCE

    def test_read_peak_does_not_grow_with_rows(self, tmp_path):
        """A read's peak above its finished table is the same at 5,000 rows as at 40,000: no column is joined."""
        line = json.dumps({"image_id": 0, "category_id": 1, "score": 0.5,
                           "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}, "matched": 0}) + "\n"
        above = []
        for n in (5_000, 40_000):
            path = tmp_path / f"m{n}.jsonl"
            path.write_text(line * n)
            tracemalloc.start()
            try:
                cols = read_matched_samples(path)
                table, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(cols) == n
            above.append(peak - table)
        assert abs(above[1] - above[0]) < 0.3 * 2**20

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("kind", ["matched", "native"])
    @pytest.mark.parametrize("bad, error, message", [
        ('{"image_id": 0, "category_id": 1, "score": 1.5, "box": {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1}, '
         '"matched": 0}', ValidationError, "score must lie in \\[0, 1\\]"),
        ("{not json", ParseError, "malformed JSON"),
    ], ids=["invalid", "malformed"])
    def test_blank_run_across_a_chunk_boundary(self, tmp_path, kind, newline, bad, error, message):
        path, ann_path = tmp_path / "m.jsonl", tmp_path / "a.jsonl"
        lineno = _blank_run_file(path, kind, newline, bad)
        assert lineno == 2706
        if kind == "matched":
            with pytest.raises(error, match=rf"m\.jsonl:{lineno}: {message}"):
                read_matched_samples(path)
        else:
            ann_path.write_text("")
            with pytest.raises(error, match=rf"m\.jsonl:{lineno}: {message}"):
                load_dataset(path, ann_path, fmt="native")

    @pytest.mark.parametrize("kind", ["matched", "native"])
    def test_records_after_a_blank_run_keep_their_order(self, tmp_path, kind):
        path, ann_path = tmp_path / "m.jsonl", tmp_path / "a.jsonl"
        _blank_run_file(path, kind, "\r\n", "")
        expected = random_matched_samples(np.random.default_rng(41), 605)
        if kind == "matched":
            assert_same_columns(read_matched_samples(path), columns(expected))
        else:
            ann_path.write_text("")
            assert load_dataset(path, ann_path, fmt="native")[0] == [s.detection for s in expected]

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("with_scores", [False, True], ids=["own-scores", "scores"])
    def test_writer_bytes_at_chunk_edges(self, tmp_path, n, with_scores):
        samples = random_matched_samples(np.random.default_rng(n), n)
        scores = np.random.default_rng(n + 1).random(n) if with_scores else None
        path = tmp_path / "out.jsonl"
        write_matched_samples(columns(samples), path, scores=scores)
        lines = []
        for i, s in enumerate(samples):
            d = s.detection
            rec = {"image_id": d.image_id, "category_id": d.category_id, "score": d.score,
                   "box": {"cx": d.box.cx, "cy": d.box.cy, "w": d.box.w, "h": d.box.h},
                   "matched": s.matched, "iou": s.iou, "gt_index": s.gt_index}
            if with_scores:
                rec = {**rec, "score": float(scores[i]), "raw_score": d.score}
            lines.append(json.dumps(rec) + "\n")
        assert path.read_bytes() == "".join(lines).encode()


# ---------------------------------------------------------------------------
# Sidecars: a re-read of the same bytes loads the parsed columns


def _sidecar(path):
    return path.with_name(f".{path.name}.detcal-columns")


def _unflagged(data: bytes) -> tuple[bytes, bytes]:
    """A sidecar's bytes but for the flag byte and the body digest, which covers it: its magic, key and row
    count, and its payload."""
    return data[:matching._DIGEST], data[matching._HEAD + 1:]


def _flag(path) -> int:
    """The own-lines flag of the sidecar of ``path``."""
    return _sidecar(path).read_bytes()[matching._HEAD]


def _older_sidecar(path, version: int) -> bytes:
    """The sidecar of ``path`` as format ``version`` 1 or 2 stored it, from the current one's row count and
    payload. The key is a 64-byte BLAKE2b digest of the file's bytes, keyed with a BLAKE2b digest of the
    reader's source. The body digest, 32-byte BLAKE2b, covers the payload alone in version 1, and in
    version 2 the body: a flag byte, set here, and the payload."""
    data = _sidecar(path).read_bytes()
    rows, payload = data[matching._ROWS:matching._DIGEST], data[matching._HEAD + 1:]
    reader = b"".join(Path(matching.__file__).with_name(name).read_bytes() for name in ("detections.py", "matching.py"))
    key = hashlib.blake2b(path.read_bytes(), key=hashlib.blake2b(reader).digest()).digest()
    body = payload if version == 1 else b"\x01" + payload
    magic = f"detcal-columns {version} {np.dtype(float).str}\n".encode()
    return magic + key + rows + hashlib.blake2b(body, digest_size=32).digest() + body


def _no_parse(path, *args, **kwargs):
    raise AssertionError(f"{path} parsed where its sidecar should have been read")


def assert_same_table(hit, parsed):
    """Equal bits, dtypes, shapes and layouts, equal ids of equal types, and read-only columns."""
    assert_same_columns(hit, parsed)
    assert type(hit.image_id) is tuple
    for name in ("values", "matched", "category_id", "iou", "gt_index"):
        assert not getattr(hit, name).flags.writeable and not getattr(parsed, name).flags.writeable, name
        assert getattr(hit, name).flags.c_contiguous == getattr(parsed, name).flags.c_contiguous, name


def _synth(tmp_path, n, name="m.jsonl"):
    path = tmp_path / name
    assert cli_main(["synth", "--scenario", "fig3_boundary_decay", "--n", str(n), "--seed", "3",
                     "--out", str(path)]) == 0
    return path


def _line(image_id=0, score=0.5, box=(0.5, 0.5, 0.1, 0.1), matched=0, gt_index=None, iou=0.0):
    return json.dumps({"image_id": image_id, "category_id": 1, "score": score,
                       "box": dict(zip(("cx", "cy", "w", "h"), box)), "matched": matched, "iou": iou,
                       "gt_index": gt_index})


# Edits to a hand-built table that the reader accepts: signed zeros, boxes it clamps (one by an ulp) and
# an index below -1, which it reads as none; and edits it rejects.
KEPT_EDITS = ["score -0.0", "iou -0.0", "clamp", "ulp", "index below -1"]
REJECTED_EDITS = ["matched 2", "unmatched index", "unmatched iou", "bool id", "float id", "overhang"]


@st.composite
def hand_built_tables(draw):
    """``(table, scores, rejected)``: 1,023 to 1,025 rows with str, int and 2**70-sized ids, values in either
    memory order, up to three rows edited, scores or None, and whether an edit is one the reader rejects."""
    n = draw(st.sampled_from([1023, 1024, 1025]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, h = rng.uniform(0.05, 0.3, (2, n))
    values = np.asfortranarray(np.column_stack([rng.random(n), rng.uniform(0.2, 0.8, (2, n)).T, w, h]))
    matched = (rng.random(n) < 0.5).astype(np.int64)
    iou_ = np.where(matched == 1, rng.uniform(0.5, 1.0, n), 0.0)
    gt_index = np.where(matched == 1, np.arange(n), -1)
    ids = [[f"img{i}", i, 2**70 + i][k] for i, k in enumerate(rng.integers(0, 3, n).tolist())]
    edits = draw(st.lists(st.tuples(st.sampled_from(KEPT_EDITS + REJECTED_EDITS), st.integers(0, n - 1)),
                          max_size=3, unique_by=lambda edit: edit[1]))
    for edit, i in edits:
        if edit in ("iou -0.0", "index below -1", "unmatched index", "unmatched iou"):
            matched[i], iou_[i], gt_index[i] = 0, 0.0, -1
        if edit in ("clamp", "overhang"):
            overhang = draw(st.floats(0.0, 0.019) if edit == "clamp" else st.floats(0.021, 0.04))
            values[i, 1] = 1.0 - 0.5 * w[i] + overhang if draw(st.booleans()) else 0.5 * w[i] - overhang
        if edit == "score -0.0":
            values[i, 0] = -0.0
        elif edit == "iou -0.0":
            iou_[i] = -0.0
        elif edit == "ulp":
            values[i, 1:] = (0.8878125000000001, 0.5, 0.22437500000000005, 0.1)
        elif edit == "index below -1":
            gt_index[i] = -5
        elif edit == "matched 2":
            matched[i] = 2
        elif edit == "unmatched index":
            gt_index[i] = 3
        elif edit == "unmatched iou":
            iou_[i] = 0.3
        elif edit in ("bool id", "float id"):
            ids[i] = True if edit == "bool id" else draw(st.sampled_from([1.0, 1.5]))
    scores = None
    if draw(st.booleans()):
        scores = rng.random(n)
        scores[rng.random(n) < 0.01] = -0.0
    # Row-major values leave every column strided.
    values = np.asarray(values, order=draw(st.sampled_from("CF")))
    table = SampleColumns(values, matched, np.full(n, 2, np.int64), iou_, gt_index, tuple(ids))
    return table, scores, any(edit in REJECTED_EDITS for edit, _ in edits)


class TestSidecar:
    def _parse_then_hit(self, path, monkeypatch):
        """Parse ``path`` with its writer's sidecar deleted, then load the sidecar the parse stored.

        A sidecar that the file's writer left must equal the parse's byte for
        byte, but for the flag a parse never sets, and the digest that covers it.
        """
        written = _sidecar(path).read_bytes() if _sidecar(path).exists() else None
        _sidecar(path).unlink(missing_ok=True)
        parsed = read_matched_samples(path)
        assert _sidecar(path).is_file() and _flag(path) == 0
        assert written is None or _unflagged(_sidecar(path).read_bytes()) == _unflagged(written)
        with monkeypatch.context() as m:
            m.setattr(matching, "_read_jsonl", _no_parse)
            hit = read_matched_samples(path)
        assert_same_table(hit, parsed)
        return parsed

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_hit_equals_the_parse_at_chunk_edges(self, tmp_path, monkeypatch, n):
        path = _synth(tmp_path, n)
        assert _flag(path) == 1  # left by the writer, which wrote every line from the table
        parsed = self._parse_then_hit(path, monkeypatch)
        assert len(parsed) == n
        # The sidecar's bytes depend on the file alone, and end in the ids as json.dumps writes them.
        stored = _sidecar(path).read_bytes()
        _sidecar(path).unlink()
        read_matched_samples(path)
        assert _sidecar(path).read_bytes() == stored
        assert stored.endswith(json.dumps(list(parsed.image_id)).encode())

    def test_apply_output_with_raw_scores(self, tmp_path, monkeypatch):
        matched = _synth(tmp_path, 3000)
        model, out = tmp_path / "lc.json", tmp_path / "cal.jsonl"
        assert cli_main(["fit", "--in", str(matched), "--method", "lc", "--features", "conf",
                         "--out", str(model)]) == 0
        assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(out)]) == 0
        assert '"raw_score"' in out.read_text().splitlines()[0]
        assert _flag(out) == 0  # left by the writer, with scores
        self._parse_then_hit(out, monkeypatch)

    def test_clamped_boxes(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        boxes = [(0.01, 0.5, 0.04, 0.1), (0.995, 0.2, 0.03, 0.1), (0.5, 0.005, 0.2, 0.03), (0.5, 0.5, 0.1, 0.1)]
        path.write_text("".join(_line(i, box=b) + "\n" for i, b in enumerate(boxes)))
        parsed = self._parse_then_hit(path, monkeypatch)
        assert parsed.values[0, 1] != 0.01  # the reader clamped it

    def test_string_and_int_ids(self, tmp_path, monkeypatch):
        ids = ["aé\"", 7, 2**70, "\ud800", "", -3, "7", 0]
        path = tmp_path / "m.jsonl"
        path.write_text("".join(_line(i, matched=k % 2, gt_index=k if k % 2 else None, iou=0.5 * (k % 2)) + "\n"
                                for k, i in enumerate(ids)))
        parsed = self._parse_then_hit(path, monkeypatch)
        assert list(parsed.image_id) == ids

    def test_crlf_and_blank_lines(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        lines = [_line(i, score=i / 2000) for i in range(1500)]
        lines[3:3] = ["", "  ", ""]
        lines[1200:1200] = [""] * 40
        path.write_bytes("\r\n".join([*lines, ""]).encode())
        parsed = self._parse_then_hit(path, monkeypatch)
        assert len(parsed) == 1500

    def test_edited_file_with_size_and_mtime_restored_is_read_as_edited(self, tmp_path):
        path = _synth(tmp_path, 200)
        before = read_matched_samples(path)
        stat, data = path.stat(), path.read_bytes()
        at = data.index(b'"score": 0.') + len(b'"score": 0.')
        path.write_bytes(data[:at] + (b"1" if data[at:at + 1] != b"1" else b"2") + data[at + 1:])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        edited = read_matched_samples(path)
        assert edited.values[0, 0] != before.values[0, 0]
        _sidecar(path).unlink()
        assert_same_table(edited, read_matched_samples(path))

    @pytest.mark.parametrize("damage", ["truncated", "magic", "key", "rows-up", "rows-down", "rows-huge", "digest",
                                        "flag", "payload", "ids"])
    def test_damaged_sidecar_is_parsed_over_and_rewritten(self, tmp_path, damage):
        path = _synth(tmp_path, 300)
        _sidecar(path).unlink()
        parsed = read_matched_samples(path)
        good = _sidecar(path).read_bytes()
        rows = matching._ROWS

        def flip(at):
            return good[:at] + bytes([good[at] ^ 1]) + good[at + 1:]

        _sidecar(path).write_bytes({
            "truncated": good[:len(good) // 2],
            "magic": flip(0),
            "key": flip(matching._KEY + 5),
            "rows-up": good[:rows] + (301).to_bytes(8, "little") + good[rows + 8:],
            "rows-down": good[:rows] + (299).to_bytes(8, "little") + good[rows + 8:],
            "rows-huge": good[:rows] + (10**12).to_bytes(8, "little") + good[rows + 8:],
            "digest": flip(matching._DIGEST + 3),
            "flag": flip(matching._HEAD),
            "payload": flip(matching._HEAD + 17),
            "ids": flip(len(good) - 3),
        }[damage])
        assert_same_table(read_matched_samples(path), parsed)
        assert _sidecar(path).read_bytes() == good

    def test_changed_reader_source_parses_again(self, tmp_path, monkeypatch):
        path = _synth(tmp_path, 300)
        parsed = read_matched_samples(path)
        monkeypatch.setattr(matching, "_source_key", lambda: bytes(64))
        calls = []
        parse = matching._read_jsonl
        monkeypatch.setattr(matching, "_read_jsonl", lambda *args, **kwargs: calls.append(1) or parse(*args, **kwargs))
        assert_same_table(read_matched_samples(path), parsed)
        assert calls == [1]

    def test_directory_in_the_sidecars_place(self, tmp_path, monkeypatch):
        path = _synth(tmp_path, 300)
        _sidecar(path).unlink()
        _sidecar(path).mkdir()
        first = read_matched_samples(path)
        assert_same_table(read_matched_samples(path), first)
        assert sorted(p.name for p in tmp_path.iterdir()) == [_sidecar(path).name, path.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_writes_no_sidecar(self, tmp_path):
        path, fifo = _synth(tmp_path, 300, "source.jsonl"), tmp_path / "fifo"
        os.mkfifo(fifo)
        for _ in range(2):
            writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
            writer.start()
            try:
                assert len(read_matched_samples(fifo)) == 300
            finally:
                writer.join(timeout=10)
            assert not _sidecar(fifo).exists()

    @pytest.mark.parametrize("bad, error", [
        (_line(score=1.5), ValidationError), ("{not json", ParseError),
    ], ids=["invalid", "malformed"])
    def test_failed_parse_writes_no_sidecar(self, tmp_path, bad, error):
        path = tmp_path / "m.jsonl"
        path.write_text(f"{_line()}\n{_line()}\n{bad}\n")
        messages = []
        for _ in range(2):
            with pytest.raises(error) as excinfo:
                read_matched_samples(path)
            messages.append(str(excinfo.value))
            assert not _sidecar(path).exists()
        assert messages[0] == messages[1] and "m.jsonl:3: " in messages[0]

    def test_file_changed_during_the_parse_stores_nothing(self, tmp_path, monkeypatch):
        """A file edited after its bytes were digested, at equal size, stores no sidecar under the old key."""
        path = _synth(tmp_path, 300)
        _sidecar(path).unlink()
        parse = matching._read_jsonl

        def parse_then_edit(p, *args, **kwargs):
            table = parse(p, *args, **kwargs)
            stat, data = p.stat(), p.read_bytes()
            at = data.index(b'"score": 0.') + len(b'"score": 0.')
            p.write_bytes(data[:at] + (b"1" if data[at:at + 1] != b"1" else b"2") + data[at + 1:])
            os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            return table

        with monkeypatch.context() as m:
            m.setattr(matching, "_read_jsonl", parse_then_edit)
            before = read_matched_samples(path)
        assert not _sidecar(path).exists()
        assert read_matched_samples(path).values[0, 0] != before.values[0, 0]

    def test_hit_holds_the_table_and_little_more(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        write_matched_samples(generate(make_scenario("fig3_boundary_decay", 20_000, seed=5)), path)
        read_matched_samples(path)
        monkeypatch.setattr(matching, "_read_jsonl", _no_parse)
        tracemalloc.start()
        try:
            cols = read_matched_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cols) == 20_000
        assert peak < _table_bytes(cols) + 2**20

    @settings(max_examples=60, deadline=None)
    @given(case=hand_built_tables())
    def test_writer_stores_what_the_parse_stores(self, tmp_path_factory, case):
        """The writer leaves a sidecar exactly when the reader keeps every value as written, and the parse
        then stores the same bytes and reads the same table; where the reader rejects a row, the read fails
        as the per-record reader does."""
        table, scores, rejected = case
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        _sidecar(path).unlink(missing_ok=True)
        write_matched_samples(table, path, scores=scores)
        stored = _sidecar(path).exists()
        if rejected:
            assert not stored
            failure = _outcome(read_matched_samples, path)
            assert issubclass(failure[0], ValidationError), failure
            assert failure == _outcome(_reference, path)
            return
        if stored:
            written = _sidecar(path).read_bytes()
            with mock.patch.object(matching, "_read_jsonl", _no_parse):
                hit = read_matched_samples(path)
            _sidecar(path).unlink()
        parsed = read_matched_samples(path)
        kept = ((parsed.values[:, 1:].tobytes(), parsed.gt_index.tobytes())
                == (table.values[:, 1:].tobytes(), table.gt_index.tobytes()))
        assert stored == kept
        if stored:
            assert _unflagged(_sidecar(path).read_bytes()) == _unflagged(written)
            assert_same_table(hit, parsed)
            # Flagged exactly when the lines are the writer's own.
            assert written[matching._HEAD] == (scores is None)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_write_to_a_pipe_or_through_a_symlink_stores_nothing(self, tmp_path):
        table = generate(make_scenario("fig3_boundary_decay", 300, seed=3))
        fifo, target, link = tmp_path / "fifo", tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_matched_samples(table, fifo)
        finally:
            reader.join(timeout=10)
        link.symlink_to(target)
        write_matched_samples(table, link)
        assert received == [target.read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.jsonl", "target.jsonl"]

    @pytest.mark.skipif(not os.path.islink("/dev/stdout"), reason="needs /dev/stdout as a link")
    def test_write_to_dev_stdout_stores_nothing(self, capfd):
        write_matched_samples(generate(make_scenario("fig3_boundary_decay", 300, seed=3)), "/dev/stdout")
        assert capfd.readouterr().out.count("\n") == 300
        assert not os.path.lexists("/dev/.stdout.detcal-columns")

    def test_edge_box_reads_back_clamped(self, tmp_path, monkeypatch):
        """A COCO box clamped to the right edge of a 640-pixel image, whose converted right edge would lie an
        ulp past 1.0, loads as the reader clamps it. Its matched file reads back as ``match_detections``
        returned it, bit for bit, from the writer's flagged sidecar and from a parse, and ``apply`` copies
        its lines."""
        ann, dets, path = tmp_path / "instances.json", tmp_path / "results.json", tmp_path / "matched.jsonl"
        bbox = [496.4, 10.0, 150.0, 20.0]
        ann.write_text(json.dumps({"images": [{"id": 1, "width": 640, "height": 100}],
                                   "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": bbox}],
                                   "categories": [{"id": 1, "name": "a"}]}))
        dets.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": bbox, "score": 0.9},
                                    {"image_id": 1, "category_id": 1, "bbox": [10.0, 10.0, 50.0, 20.0],
                                     "score": 0.4}]))
        table = match_detections(*load_dataset(dets, ann)[:2], 0.5)
        assert table.matched.tolist() == [1, 0]
        assert table.values[0, 1] + 0.5 * table.values[0, 3] <= 1.0
        write_matched_samples(table, path)
        assert _flag(path) == 1
        with monkeypatch.context() as m:
            m.setattr(matching, "_read_jsonl", _no_parse)
            loaded = read_matched_samples(path)
        assert_same_columns(loaded, table)
        synth, model, out = _synth(tmp_path, 1000), tmp_path / "lc.json", tmp_path / "cal.jsonl"
        assert cli_main(["fit", "--in", str(synth), "--method", "lc", "--features", "conf", "--out", str(model)]) == 0
        with _spy() as spliced:
            assert cli_main(["apply", "--model", str(model), "--in", str(path), "--out", str(out)]) == 0
        assert spliced.call_count == 1
        _sidecar(path).unlink()
        assert_same_columns(read_matched_samples(path), table)


class TestReaderSidecarPlacement:
    """The reader stores a sidecar only beside a path that itself names a regular file."""

    def test_read_through_a_symlink_stores_nothing(self, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("".join(_line(i) + "\n" for i in range(5)))
        link.symlink_to(target)
        first = read_matched_samples(link)
        assert_same_table(read_matched_samples(link), first)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "target.jsonl"]

    @pytest.mark.skipif(not os.path.islink("/dev/stdin"), reason="needs /dev/stdin as a link")
    def test_read_of_dev_stdin_redirected_from_a_file_stores_nothing(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("".join(_line(i) + "\n" for i in range(5)))
        src = str(Path(matching.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "from detcal.matching import read_matched_samples; print(len(read_matched_samples('/dev/stdin')))"
        with open(path, "rb") as stdin:
            done = subprocess.run([sys.executable, "-c", code], stdin=stdin, capture_output=True, text=True,
                                  env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, "5\n"), done.stderr
        assert not os.path.lexists("/dev/.stdin.detcal-columns")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]


# ---------------------------------------------------------------------------
# Writing new scores by copying the lines of a file the writer wrote


# Image ids whose text holds quotes, commas, braces, backslashes, the copy's separators or no ASCII.
AWKWARD_IDS = ['say "score": 0.5', 'a, "score": 1, "box": {"cx": 2}', ', "box": ', "}\n{", '"', "\\", ",",
               "é ", "\ud800", "", 2**70, -3, 0]


@st.composite
def copy_cases(draw):
    """``(table, scores, clamped)``: no rows or 1,023 to 1,025, ids among :data:`AWKWARD_IDS` and plain
    ones, up to two boxes the reader re-clamps, and new scores with signed zeros and ones."""
    n = draw(st.sampled_from([0, 1023, 1024, 1025]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, h = rng.uniform(0.05, 0.3, (2, n))
    values = np.asfortranarray(np.column_stack([rng.random(n), rng.uniform(0.2, 0.8, (2, n)).T, w, h]))
    clamped = draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []
    for i in clamped:
        values[i, 1] = 1.0 - 0.5 * w[i] + 0.01
    matched = (rng.random(n) < 0.5).astype(np.int64)
    iou_ = np.where(matched == 1, rng.uniform(0.5, 1.0, n), 0.0)
    gt_index = np.where(matched == 1, np.arange(n), -1)
    pick = rng.integers(0, 2 * len(AWKWARD_IDS), n).tolist()
    ids = tuple(AWKWARD_IDS[k] if k < len(AWKWARD_IDS) else f"img{i}" for i, k in enumerate(pick))
    scores = rng.random(n)
    scores[rng.random(n) < 0.02] = -0.0
    scores[rng.random(n) < 0.02] = 1.0
    table = SampleColumns(values, matched, np.full(n, 2, np.int64), iou_, gt_index, ids)
    return table, scores, bool(clamped)


def _spy():
    """A context that counts the copies write_matched_samples starts."""
    return mock.patch.object(matching, "_spliced", wraps=matching._spliced)


class TestLoadedTables:
    """A table loaded from a sidecar is a read-only view of the sidecar's bytes; only one loaded from a
    flagged sidecar names its file and key for the copy."""

    @pytest.mark.parametrize("sidecar", ["flagged", "stored by a parse"])
    def test_loaded_arrays_cannot_be_made_writeable(self, tmp_path, monkeypatch, sidecar):
        path = _synth(tmp_path, 1025)
        if sidecar == "stored by a parse":
            _sidecar(path).unlink()
            read_matched_samples(path)
        monkeypatch.setattr(matching, "_read_jsonl", _no_parse)
        loaded = read_matched_samples(path)
        assert _flag(path) == (sidecar == "flagged")
        for array in (loaded.values, loaded.values.base, loaded.matched, loaded.category_id, loaded.iou,
                      loaded.gt_index):
            with pytest.raises(ValueError):
                array.setflags(write=True)

    def test_only_a_table_loaded_from_a_flagged_sidecar_names_a_source(self, tmp_path, monkeypatch):
        path = _synth(tmp_path, 1025)
        loaded = read_matched_samples(path)
        assert loaded._source[0] == path
        derived = [loaded.take(np.arange(len(loaded))), loaded[:10], loaded.with_scores(np.zeros(len(loaded)))]
        assert [table._source for table in derived] == [None] * 3
        _sidecar(path).unlink()
        parsed = read_matched_samples(path)
        monkeypatch.setattr(matching, "_read_jsonl", _no_parse)
        unflagged = read_matched_samples(path)
        assert _flag(path) == 0 and parsed._source is None and unflagged._source is None

    def test_copy_peak_does_not_grow_with_rows(self, tmp_path):
        """A copy-path write holds a block of lines at a time and no encoding of the ids: its traced peak is
        the same at 10,000 rows as at 30,000."""
        peaks = []
        for n in (10_000, 30_000):
            loaded = read_matched_samples(_synth(tmp_path, n, f"m{n}.jsonl"))
            scores = np.random.default_rng(4).random(n)
            with _spy() as spliced:
                write_matched_samples(loaded, tmp_path / "warm.jsonl", scores=scores)
            assert spliced.called
            tracemalloc.start()
            try:
                write_matched_samples(loaded, tmp_path / "out.jsonl", scores=scores)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.05 * 2**20


class TestCopiedLines:
    """``write_matched_samples(table, path, scores=...)`` of a table loaded from a file the writer wrote
    copies that file's lines; its output and sidecar are those of the formatted write, byte for byte."""

    def _source(self, tmp_path, n=1025):
        """A written file, its table as loaded, new scores, and the formatted write's bytes and sidecar."""
        source = tmp_path / "m.jsonl"
        write_matched_samples(generate(make_scenario("fig3_boundary_decay", n, seed=3)), source)
        loaded = read_matched_samples(source)
        assert loaded._source[0] == source
        scores = np.random.default_rng(4).random(n)
        expected = tmp_path / "expected.jsonl"
        write_matched_samples(loaded.take(np.arange(n)), expected, scores=scores)
        return source, loaded, scores, expected.read_bytes(), _sidecar(expected).read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(case=copy_cases())
    def test_copy_gives_the_bytes_of_the_formatted_write(self, tmp_path_factory, case):
        table, scores, clamped = case
        base = tmp_path_factory.mktemp("copy")
        source, copied, formatted = base / "m.jsonl", base / "copied.jsonl", base / "formatted.jsonl"
        write_matched_samples(table, source)
        loaded = read_matched_samples(source)
        with _spy() as spliced:
            write_matched_samples(loaded, copied, scores=scores)
        assert spliced.called == (not clamped)  # the reader re-clamps a box: no copy
        write_matched_samples(loaded.take(np.arange(len(loaded))), formatted, scores=scores)
        assert copied.read_bytes() == formatted.read_bytes()
        assert _sidecar(copied).read_bytes() == _sidecar(formatted).read_bytes()

    def test_apply_copies_and_matches_the_formatted_write(self, tmp_path):
        matched = _synth(tmp_path, 3000)
        model, copied, formatted = tmp_path / "dep.json", tmp_path / "copied.jsonl", tmp_path / "formatted.jsonl"
        assert cli_main(["fit", "--in", str(matched), "--method", "lc-dep", "--features", "conf+xy",
                         "--out", str(model)]) == 0
        with _spy() as spliced:
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(copied)]) == 0
        assert spliced.call_count == 1
        with mock.patch.object(matching, "_copy_source", return_value=None):
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(formatted)]) == 0
        assert copied.read_bytes() == formatted.read_bytes()
        assert _sidecar(copied).read_bytes() == _sidecar(formatted).read_bytes()

    def test_copy_encodes_the_ids_once(self, tmp_path):
        # The copy encodes no ids; the output's sidecar encodes them once.
        source, loaded, scores, expected, sidecar = self._source(tmp_path, 3000)
        out, dumps = tmp_path / "out.jsonl", json.dumps
        with _spy() as spliced, mock.patch.object(json, "dumps", side_effect=dumps) as encode:
            write_matched_samples(loaded, out, scores=scores)
        assert spliced.called and encode.call_count == -(-3000 // matching._CHUNK_LINES)
        assert (out.read_bytes(), _sidecar(out).read_bytes()) == (expected, sidecar)

    @pytest.mark.parametrize("edit", ["digit", "truncated", "deleted", "appended"])
    def test_source_edited_between_read_and_write(self, tmp_path, edit):
        source, loaded, scores, expected, sidecar = self._source(tmp_path)
        data = source.read_bytes()
        if edit == "digit":
            at = data.index(b'"score": 0.') + len(b'"score": 0.')
            source.write_bytes(data[:at] + (b"1" if data[at:at + 1] != b"1" else b"2") + data[at + 1:])
        elif edit == "truncated":
            source.write_bytes(data[:data.rindex(b"\n", 0, -1) + 1])
        elif edit == "deleted":
            source.unlink()
        else:
            source.write_bytes(data + data[:data.index(b"\n") + 1])
        out = tmp_path / "out.jsonl"
        with _spy() as spliced:
            write_matched_samples(loaded, out, scores=scores)
        assert spliced.called == (edit != "deleted")
        assert (out.read_bytes(), _sidecar(out).read_bytes()) == (expected, sidecar)

    def test_source_edited_during_the_copy(self, tmp_path):
        source, loaded, scores, expected, sidecar = self._source(tmp_path)
        copy = matching._spliced

        def edit_after_the_first_block(*args):
            blocks = copy(*args)
            yield next(blocks)
            data = source.read_bytes()
            at = data.rindex(b'"score": 0.') + len(b'"score": 0.')
            source.write_bytes(data[:at] + (b"1" if data[at:at + 1] != b"1" else b"2") + data[at + 1:])
            yield from blocks

        out = tmp_path / "out.jsonl"
        with mock.patch.object(matching, "_spliced", edit_after_the_first_block):
            write_matched_samples(loaded, out, scores=scores)
        assert (out.read_bytes(), _sidecar(out).read_bytes()) == (expected, sidecar)

    @pytest.mark.parametrize("out", ["same path", "hard link", "symlink"])
    def test_no_copy_onto_the_source_or_through_a_link(self, tmp_path, out):
        source, loaded, scores, expected, _ = self._source(tmp_path)
        path = {"same path": source, "hard link": tmp_path / "hard.jsonl", "symlink": tmp_path / "link.jsonl"}[out]
        if out == "hard link":
            os.link(source, path)
        elif out == "symlink":
            path.symlink_to(tmp_path / "target.jsonl")
        with _spy() as spliced:
            write_matched_samples(loaded, path, scores=scores)
        assert not spliced.called
        assert path.read_bytes() == expected

    def test_apply_with_out_equal_to_in(self, tmp_path):
        matched = _synth(tmp_path, 2000)
        model, expected = tmp_path / "lc.json", tmp_path / "expected.jsonl"
        assert cli_main(["fit", "--in", str(matched), "--method", "lc", "--features", "conf",
                         "--out", str(model)]) == 0
        with mock.patch.object(matching, "_copy_source", return_value=None):
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(expected)]) == 0
        with _spy() as spliced:
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(matched)]) == 0
        assert not spliced.called
        assert matched.read_bytes() == expected.read_bytes()

    @pytest.mark.skipif(not os.path.islink("/dev/stdout"), reason="needs /dev/stdout as a link")
    def test_apply_to_dev_stdout(self, tmp_path, capfd):
        matched = _synth(tmp_path, 2000)
        model, expected = tmp_path / "lc.json", tmp_path / "expected.jsonl"
        assert cli_main(["fit", "--in", str(matched), "--method", "lc", "--features", "conf",
                         "--out", str(model)]) == 0
        with mock.patch.object(matching, "_copy_source", return_value=None):
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(expected)]) == 0
        capfd.readouterr()
        with _spy() as spliced:
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", "/dev/stdout"]) == 0
        assert not spliced.called
        assert capfd.readouterr().out == expected.read_text()

    @pytest.mark.parametrize("sidecar", ["stored by a parse", "version 1", "version 2"])
    def test_no_copy_from_an_unflagged_sidecar(self, tmp_path, sidecar):
        matched = _synth(tmp_path, 1025)
        model, copied, out = tmp_path / "lc.json", tmp_path / "copied.jsonl", tmp_path / "out.jsonl"
        assert cli_main(["fit", "--in", str(matched), "--method", "lc", "--features", "conf",
                         "--out", str(model)]) == 0
        with _spy() as spliced:
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(copied)]) == 0
        assert spliced.call_count == 1
        if sidecar == "stored by a parse":
            _sidecar(matched).unlink()
        else:
            # A flagged sidecar of an earlier format beside the unchanged file.
            _sidecar(matched).write_bytes(older := _older_sidecar(matched, int(sidecar[-1])))
            assert not older.startswith(matching._MAGIC)
        with _spy() as spliced:
            # Parses, and stores an unflagged sidecar of the current format.
            assert cli_main(["apply", "--model", str(model), "--in", str(matched), "--out", str(out)]) == 0
        assert not spliced.called
        assert _sidecar(matched).read_bytes().startswith(matching._MAGIC) and _flag(matched) == 0
        assert (out.read_bytes(), _sidecar(out).read_bytes()) == (copied.read_bytes(), _sidecar(copied).read_bytes())


_GRID_BOXES = [BoxGeometry(cx, cy, w, h) for cx in (0.4, 0.5) for cy in (0.5, 0.6) for w in (0.2, 0.4) for h in (0.2,)]


@st.composite
def matching_groups(draw):
    """Few detections and ground truths on two images and two categories.

    Scores come from three values and boxes from a small grid, so score ties
    and IoU ties (identical ground-truth boxes) are common.
    """
    box = st.sampled_from(_GRID_BOXES)
    group = st.tuples(st.integers(0, 1), st.integers(1, 2))
    detections = [Detection(i, c, s, b) for (i, c), s, b in draw(
        st.lists(st.tuples(group, st.sampled_from([0.25, 0.5, 0.75]), box), max_size=7))]
    truth = [GroundTruthObject(i, c, b, crowd_flag=f) for (i, c), b, f in draw(
        st.lists(st.tuples(group, box, st.booleans()), max_size=6))]
    return detections, truth


@settings(max_examples=300, deadline=None)
@given(case=matching_groups(), threshold=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]), exclude_crowd=st.booleans())
def test_matcher_agrees_with_greedy_reference(case, threshold, exclude_crowd):
    detections, truth = case
    samples = match_detections(detections, truth, threshold, exclude_crowd=exclude_crowd)
    assert [s.detection for s in samples] == detections
    assert [(s.matched, s.iou, s.gt_index) for s in samples] == greedy_match(
        detections, truth, threshold, iou, exclude_crowd=exclude_crowd
    )
