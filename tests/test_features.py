import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcal.calibrators import apply, fit, model_to_json
from detcal.errors import UsageError, ValidationError
from detcal.features import (
    NAMED_FEATURE_SETS,
    FeatureSet,
    build_feature_matrix,
    columns,
    feature_set,
    labels,
    raw_values,
)
from detcal.matching import write_matched_samples
from detcal.metrics import compute_d_ece, default_eval_spec
from oracles import make_sample, random_matched_samples
from test_acceptance import _with_scores


class TestFeatureSet:
    def test_named_sets(self):
        assert feature_set("conf").members == ("confidence",)
        assert feature_set("conf+xy").members == ("confidence", "cx", "cy")
        assert feature_set("conf+wh").members == ("confidence", "w", "h")
        assert feature_set("full").members == ("confidence", "cx", "cy", "w", "h")
        assert feature_set("full").k == 5

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            feature_set("xywh")

    def test_confidence_must_come_first(self):
        with pytest.raises(ValidationError):
            FeatureSet(members=("cx", "confidence"))
        with pytest.raises(ValidationError):
            FeatureSet(members=("cx",))

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            FeatureSet(members=("confidence", "cx", "cx"))

    def test_unknown_member_rejected(self):
        with pytest.raises(ValidationError):
            FeatureSet(members=("confidence", "area"))

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValidationError):
            FeatureSet(members=("confidence",), confidence_encoding="log")


class TestBuildFeatures:
    def test_logit_of_half_is_zero(self):
        fs = FeatureSet(members=("confidence",), confidence_encoding="logit")
        v = build_feature_matrix([make_sample(0.5, True)], fs)[0]
        assert v[0] == 0.0

    def test_clipping_at_one(self):
        fs = FeatureSet(members=("confidence",))
        v = build_feature_matrix([make_sample(1.0, True)], fs, eps=1e-6)[0]
        assert v[0] == 1.0 - 1e-6

    def test_logit_of_point_nine(self):
        fs = FeatureSet(members=("confidence",), confidence_encoding="logit")
        v = build_feature_matrix([make_sample(0.9, True)], fs)[0]
        assert v[0] == pytest.approx(math.log(9.0), abs=1e-12)

    def test_box_members_pass_through(self):
        fs = FeatureSet(members=("confidence", "cx", "w"))
        v = build_feature_matrix([make_sample(0.3, False, box=(0.4, 0.5, 0.2, 0.2))], fs)[0]
        assert np.allclose(v, [0.3, 0.4, 0.2])

    def test_probability_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        samples = random_matched_samples(rng, 500)
        fs = FeatureSet(members=("confidence", "cx", "cy", "w", "h"))
        x = build_feature_matrix(samples, fs)
        assert x.min() > 0.0 and x.max() < 1.0

    def test_logit_sigmoid_round_trip(self):
        rng = np.random.default_rng(1)
        samples = random_matched_samples(rng, 500)
        logit_fs = FeatureSet(members=("confidence",), confidence_encoding="logit")
        prob_fs = FeatureSet(members=("confidence",))
        z = build_feature_matrix(samples, logit_fs)[:, 0]
        p = build_feature_matrix(samples, prob_fs)[:, 0]
        assert np.max(np.abs(1.0 / (1.0 + np.exp(-z)) - p)) < 1e-12

    def test_order_independence(self):
        rng = np.random.default_rng(2)
        samples = random_matched_samples(rng, 50)
        fs = FeatureSet(members=("confidence", "cx"))
        whole = build_feature_matrix(samples, fs)
        each = np.stack([build_feature_matrix([s], fs)[0] for s in samples])
        assert np.array_equal(whole, each)

    def test_eps_validation(self):
        fs = FeatureSet(members=("confidence",))
        with pytest.raises(UsageError):
            build_feature_matrix([make_sample(0.5, True)], fs, eps=0.0)
        with pytest.raises(UsageError):
            build_feature_matrix([make_sample(0.5, True)], fs, eps=0.7)

    def test_raw_values_unclipped(self):
        v = raw_values([make_sample(1.0, True)], ("confidence", "h"))
        assert v.tolist() == [[1.0, 0.2]]


class TestLabels:
    def test_all_matched(self):
        samples = [make_sample(0.5, True) for _ in range(4)]
        assert labels(samples).tolist() == [1, 1, 1, 1]

    def test_empty(self):
        assert labels([]).tolist() == []

    def test_mixed_copy(self):
        flags = [True, False, False, True]
        samples = [make_sample(0.5, f) for f in flags]
        assert labels(samples).tolist() == [int(f) for f in flags]


class TestSampleColumns:
    def test_columns_follow_member_order(self):
        samples = [make_sample(0.3, False, box=(0.4, 0.5, 0.2, 0.1)), make_sample(0.8, True)]
        cols = columns(samples)
        assert cols.values.tolist() == [[0.3, 0.4, 0.5, 0.2, 0.1], [0.8, 0.5, 0.5, 0.2, 0.2]]
        assert cols.matched.tolist() == [0, 1]
        assert columns(cols) is cols
        assert cols.take(np.array([1])).values.tolist() == [[0.8, 0.5, 0.5, 0.2, 0.2]]

    def test_take_and_with_scores_carry_every_field(self):
        samples = [make_sample(0.3, False, image_id="a", category_id=4),
                   make_sample(0.8, True, image_id=7, category_id=2, gt_index=5)]
        cols = columns(samples)
        assert (cols.category_id.tolist(), cols.iou.tolist(), cols.gt_index.tolist(), cols.image_id) == (
            [4, 2], [0.0, 1.0], [-1, 5], ("a", 7))
        picked = cols.take(np.array([1, 0, 1]))
        assert picked.values.tolist() == cols.values[[1, 0, 1]].tolist()
        assert (picked.matched.tolist(), picked.category_id.tolist(), picked.iou.tolist(),
                picked.gt_index.tolist(), picked.image_id) == ([1, 0, 1], [2, 4, 2], [1.0, 0.0, 1.0],
                                                               [5, -1, 5], (7, "a", 7))
        rescored = cols.with_scores([0.1, 0.2])
        assert rescored.values[:, 0].tolist() == [0.1, 0.2]
        assert rescored.image_id is cols.image_id and rescored.gt_index is cols.gt_index

    def test_columns_are_read_only(self):
        cols = columns(random_matched_samples(np.random.default_rng(4), 10))
        with pytest.raises(ValueError):
            labels(cols)[0] = 1
        with pytest.raises(ValueError):
            cols.values[0, 0] = 0.5

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
    def test_bad_scores_rejected(self, bad, tmp_path):
        samples = random_matched_samples(np.random.default_rng(5), 3)
        scores = [0.5, bad, 0.5]
        with pytest.raises(ValidationError):
            columns(samples).with_scores(scores)
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValidationError):
            write_matched_samples(samples, path, scores=scores)
        assert not path.exists()


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 400))
def test_columns_and_records_agree_bit_for_bit(seed, n):
    rng = np.random.default_rng(seed)
    samples = random_matched_samples(rng, n)
    cols = columns(samples)
    q = rng.random(n)
    for members in NAMED_FEATURE_SETS.values():
        spec = default_eval_spec(members, min_samples=0)
        assert _bits(compute_d_ece(samples, spec)[0]) == _bits(compute_d_ece(cols, spec)[0])
        rebuilt = compute_d_ece(_with_scores(samples, q), spec)[0]
        assert _bits(rebuilt) == _bits(compute_d_ece(cols.with_scores(q), spec)[0])
        for method in ("hist_binning", "logistic_indep"):
            from_records, from_columns = fit(method, samples, members), fit(method, cols, members)
            assert json.dumps(model_to_json(from_records)) == json.dumps(model_to_json(from_columns))
            assert _bits(apply(from_records, samples)) == _bits(apply(from_columns, cols))
