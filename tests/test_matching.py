import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcal.detections import BoxGeometry, Detection, GroundTruthObject
from detcal.errors import DataError, ParseError, UsageError, ValidationError
from detcal.matching import (
    MatchedSample,
    iou,
    match_detections,
    read_matched_samples,
    write_matched_samples,
)
from oracles import random_matched_samples
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
        assert read_matched_samples(path) == samples

    def test_raw_scores_column(self, tmp_path):
        rng = np.random.default_rng(29)
        samples = random_matched_samples(rng, 5)
        path = tmp_path / "matched.jsonl"
        write_matched_samples(samples, path, scores=[0.1, 0.2, 0.3, 0.4, 0.5])
        import json

        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["score"] for r in recs] == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert [r["raw_score"] for r in recs] == [s.detection.score for s in samples]


_MISSING = object()


@st.composite
def matched_records(draw):
    """A valid matched record, or one with a single field replaced or removed."""
    matched = draw(st.sampled_from([0, 1]))
    rec = {
        "image_id": draw(st.integers(0, 3) | st.text(max_size=4)),
        "category_id": draw(st.integers(1, 3)),
        "score": draw(st.floats(0.0, 1.0)),
        "box": {"cx": draw(st.floats(0.2, 0.8)), "cy": draw(st.floats(0.2, 0.8)),
                "w": draw(st.floats(0.01, 0.2)), "h": draw(st.floats(0.01, 0.2))},
        "matched": matched,
        "iou": draw(st.floats(0.5, 1.0)) if matched else 0.0,
        "gt_index": draw(st.integers(0, 5)) if matched else None,
    }
    target = draw(st.sampled_from([None, *rec, *(f"box.{k}" for k in rec["box"])]))
    if target is not None:
        owner, key = (rec["box"], target[4:]) if target.startswith("box.") else (rec, target)
        value = draw(st.just(_MISSING) | JSON_VALUES)
        if value is _MISSING:
            del owner[key]
        else:
            owner[key] = value
    return rec


class TestReadMatchedSamplesContract:
    """Any file content yields samples or a DataError, never another exception."""

    def _read(self, path, content: bytes):
        path.write_bytes(content)
        try:
            samples = read_matched_samples(path)
        except DataError as exc:
            assert str(path) in str(exc)
            return None
        assert all(isinstance(s, MatchedSample) for s in samples)
        return samples

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
        samples = self._read(path, content)
        if samples is not None:
            assert len(samples) == len(lines)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.binary(max_size=48), max_size=4))
    def test_arbitrary_bytes(self, tmp_path_factory, lines):
        self._read(tmp_path_factory.getbasetemp() / "byte_lines.jsonl", b"\n".join(lines))
