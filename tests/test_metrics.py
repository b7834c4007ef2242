import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcal import synth
from detcal.errors import (
    DataError,
    DimensionalityError,
    EmptyMetricError,
    UsageError,
    ValidationError,
)
from detcal.features import MEMBER_NAMES, NAMED_FEATURE_SETS, SampleColumns, columns
from detcal.metrics import (
    BinningSpec,
    bin_indices,
    binned_stats,
    compute_d_ece,
    default_eval_spec,
    heatmap,
    reliability_curve,
    require_dimensionality_match,
)
from oracles import (
    brute_force_dece,
    classification_ece,
    make_sample,
    random_matched_samples,
    reference_bin_index,
    reference_heatmap,
    reference_heatmap_rows,
)

FULL = ("confidence", "cx", "cy", "w", "h")


def four_sample_dataset():
    return [
        make_sample(0.9, True),
        make_sample(0.9, False),
        make_sample(0.1, False),
        make_sample(0.1, False),
    ]


class TestBinIndex:
    def test_zero(self):
        assert bin_indices([0.0], 10).tolist() == [0]

    def test_right_edge_goes_to_top_bin(self):
        assert bin_indices([1.0], 10).tolist() == [9]

    def test_interior(self):
        assert bin_indices([0.55], 10).tolist() == [5]

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            bin_indices([-0.1], 10)
        with pytest.raises(UsageError):
            bin_indices([1.1], 10)

    def test_bad_bin_count(self):
        with pytest.raises(UsageError):
            bin_indices([0.5], 0)

    def test_vectorized_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        values = rng.random(1000)
        values[:5] = [0.0, 1.0, 0.5, 0.999999, 1e-9]
        for n in (1, 2, 7, 20):
            assert bin_indices(values, n).tolist() == [reference_bin_index(v, n) for v in values]

    def test_one_count_per_column(self):
        values = np.random.default_rng(1).random((250, 4))
        values[0] = [0.0, 1.0, 0.5, 1e-9]
        counts = (1, 2, 7, 20)
        expected = np.stack([bin_indices(values[:, k], n) for k, n in enumerate(counts)], axis=1)
        assert np.array_equal(bin_indices(values, counts), expected)
        with pytest.raises(UsageError):
            bin_indices(values, (1, 0, 7, 20))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(UsageError, match="finite"):
            bin_indices(np.array([0.5, bad]), 10)
        with pytest.raises(UsageError, match="finite"):
            bin_indices(np.array([[0.5, 0.5], [0.5, bad]]), (10, 4))

    def test_nan_in_hand_built_columns(self):
        cols = columns(random_matched_samples(np.random.default_rng(2), 50))
        values = cols.values.copy(order="F")
        values[7, 1] = np.nan
        bad = SampleColumns(values, cols.matched, cols.category_id, cols.iou, cols.gt_index, cols.image_id)
        spec = BinningSpec(dims=("confidence", "cx"), counts=(4, 4), min_samples=0)
        with pytest.raises(UsageError, match="finite"):
            compute_d_ece(bad, spec)


class TestBinningSpec:
    def test_total_bins(self):
        spec = BinningSpec(dims=("confidence", "cx"), counts=(4, 5), min_samples=0)
        assert spec.total_bins == 20

    def test_validation(self):
        with pytest.raises(ValidationError):
            BinningSpec(dims=(), counts=())
        with pytest.raises(ValidationError):
            BinningSpec(dims=("confidence",), counts=(0,))
        with pytest.raises(ValidationError):
            BinningSpec(dims=("confidence",), counts=(2, 3))
        with pytest.raises(ValidationError):
            BinningSpec(dims=("confidence",), counts=(2,), min_samples=-1)
        with pytest.raises(ValidationError):
            BinningSpec(dims=("confidence", "confidence"), counts=(2, 2))

    @pytest.mark.parametrize("make", [
        lambda: BinningSpec(("confidence",), (2.5,)),
        lambda: BinningSpec(("confidence",), (True,)),
        lambda: BinningSpec(("confidence",), (4,), min_samples=2.5),
        lambda: reliability_curve(four_sample_dataset(), 2.5),
    ], ids=["float-count", "bool-count", "float-min-samples", "reliability-float-bins"])
    def test_non_integer_count_refused(self, make):
        with pytest.raises(ValidationError, match="must be an integer >= "):
            make()

    def test_numpy_integer_counts(self):
        spec = BinningSpec(("confidence", "cx"), (np.int64(4), np.int32(5)), min_samples=np.int64(0))
        assert spec.counts == (4, 5) and all(type(c) is int for c in spec.counts)
        assert len(reliability_curve(four_sample_dataset(), np.int64(2))) == 2

    def test_grid_beyond_int64_rejected(self):
        BinningSpec(dims=("confidence",), counts=(2**63 - 1,))
        with pytest.raises(ValidationError, match="int64"):
            BinningSpec(dims=("confidence",), counts=(2**63,))
        with pytest.raises(ValidationError, match="int64"):
            BinningSpec(dims=FULL, counts=(10000,) * 5)

    def test_unallocatable_grid_rejected(self):
        samples = random_matched_samples(np.random.default_rng(3), 50)
        # 10^15 cells fit in int64, but no host allocates their 7 PiB of counts.
        spec = BinningSpec(dims=FULL, counts=(1000,) * 5)
        with pytest.raises(ValidationError, match=r"\(1000, 1000, 1000, 1000, 1000\)"):
            compute_d_ece(samples, spec)

    def test_default_eval_spec(self):
        assert default_eval_spec(("confidence",)).counts == (20,)
        assert default_eval_spec(("confidence", "cx", "cy")).counts == (8, 8, 8)
        assert default_eval_spec(("confidence", "cx", "cy", "w", "h")).counts == (5,) * 5
        with pytest.raises(UsageError):
            default_eval_spec(("confidence", "cx"))


class TestComputeDece:
    def test_perfectly_calibrated_is_zero(self):
        # Each bin's mean score equals its empirical precision exactly.
        samples = (
            [make_sample(0.75, True)] * 3
            + [make_sample(0.75, False)]
            + [make_sample(0.25, True)]
            + [make_sample(0.25, False)] * 3
        )
        spec = BinningSpec(dims=("confidence",), counts=(2,), min_samples=0)
        value, _ = compute_d_ece(samples, spec)
        assert value == 0.0

    @pytest.mark.parametrize("flag", ["no", 1, None, np.bool_(False)])
    def test_renormalize_must_be_a_bool(self, flag):
        spec = BinningSpec(dims=("confidence",), counts=(2,), min_samples=0)
        with pytest.raises(UsageError, match="renormalize must be True or False"):
            compute_d_ece(four_sample_dataset(), spec, renormalize=flag)

    def test_four_sample_hand_example(self):
        spec = BinningSpec(dims=("confidence",), counts=(2,), min_samples=0)
        value, stats = compute_d_ece(four_sample_dataset(), spec)
        assert value == pytest.approx(0.25, abs=1e-15)
        assert stats.bin_counts.tolist() == [2, 2]

    def test_matches_brute_force_on_random_datasets(self):
        rng = np.random.default_rng(42)
        members = ("confidence", "cx", "cy", "w", "h")
        for trial in range(30):
            n = int(rng.integers(30, 800))
            samples = random_matched_samples(rng, n)
            k = int(rng.integers(1, 6))
            dims = members[:k]
            counts = tuple(int(c) for c in rng.integers(1, 9, k))
            min_samples = int(rng.choice([0, 1, 4, 8]))
            renorm = bool(trial % 2)
            spec = BinningSpec(dims=dims, counts=counts, min_samples=min_samples)
            expected = brute_force_dece(samples, dims, counts, min_samples, renorm)
            if expected is None:
                with pytest.raises(EmptyMetricError):
                    compute_d_ece(samples, spec, renormalize=renorm)
                continue
            value, _ = compute_d_ece(samples, spec, renormalize=renorm)
            assert abs(value - expected) <= 1e-12

    def test_reduces_to_classification_ece(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            samples = random_matched_samples(rng, int(rng.integers(20, 500)))
            n_bins = int(rng.integers(2, 30))
            spec = BinningSpec(dims=("confidence",), counts=(n_bins,), min_samples=0)
            value, _ = compute_d_ece(samples, spec)
            expected = classification_ece(
                [s.detection.score for s in samples], [s.matched for s in samples], n_bins
            )
            assert value == expected

    def test_value_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            samples = random_matched_samples(rng, 200)
            spec = BinningSpec(dims=("confidence", "w"), counts=(5, 4), min_samples=0)
            value, _ = compute_d_ece(samples, spec)
            assert 0.0 <= value <= 1.0

    def test_weights_sum_to_one_without_threshold(self):
        rng = np.random.default_rng(4)
        samples = random_matched_samples(rng, 300)
        spec = BinningSpec(dims=("confidence",), counts=(10,), min_samples=0)
        _, stats = compute_d_ece(samples, spec)
        assert stats.retained_samples == stats.total_samples == 300

    def test_min_samples_drops_and_renormalizes(self):
        samples = [make_sample(0.1, False)] * 9 + [make_sample(0.9, True)]
        spec = BinningSpec(dims=("confidence",), counts=(2,), min_samples=5)
        value, stats = compute_d_ece(samples, spec)
        assert stats.retained_samples == 9 and stats.dropped_bins == 1
        assert value == pytest.approx(0.1, abs=1e-15)
        value_raw, _ = compute_d_ece(samples, spec, renormalize=False)
        assert value_raw == pytest.approx(0.09, abs=1e-15)

    def test_all_bins_dropped_raises_with_histogram(self):
        samples = [make_sample(0.2, False), make_sample(0.8, True)]
        spec = BinningSpec(dims=("confidence",), counts=(2,), min_samples=5)
        with pytest.raises(EmptyMetricError) as excinfo:
            compute_d_ece(samples, spec)
        assert excinfo.value.bin_histogram == {1: 2}

    def test_empty_samples_rejected(self):
        spec = BinningSpec(dims=("confidence",), counts=(2,), min_samples=0)
        with pytest.raises(DataError):
            compute_d_ece([], spec)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    name=st.sampled_from(sorted(NAMED_FEATURE_SETS)),
    min_samples=st.integers(0, 10),
    renormalize=st.booleans(),
)
def test_d_ece_is_order_free_and_bounded(seed, n, name, min_samples, renormalize):
    rng = np.random.default_rng(seed)
    samples = random_matched_samples(rng, n)
    shuffled = [samples[i] for i in rng.permutation(n)]
    spec = default_eval_spec(NAMED_FEATURE_SETS[name], min_samples)
    try:
        value, _ = compute_d_ece(samples, spec, renormalize=renormalize)
    except EmptyMetricError:
        with pytest.raises(EmptyMetricError):
            compute_d_ece(shuffled, spec, renormalize=renormalize)
        return
    permuted, _ = compute_d_ece(shuffled, spec, renormalize=renormalize)
    assert abs(value - permuted) <= 1e-12
    assert 0.0 <= value <= 1.0


class TestReliabilityCurve:
    def test_all_ones_matched(self):
        samples = [make_sample(1.0, True)] * 5
        assert reliability_curve(samples, 10) == [(1.0, 1.0, 5)]

    def test_all_ones_unmatched(self):
        samples = [make_sample(1.0, False)] * 5
        assert reliability_curve(samples, 10) == [(1.0, 0.0, 5)]

    def test_four_sample_example(self):
        curve = reliability_curve(four_sample_dataset(), 2)
        assert curve == [
            (pytest.approx(0.1), pytest.approx(0.0), 2),
            (pytest.approx(0.9), pytest.approx(0.5), 2),
        ]


class TestHeatmap:
    def _spec(self, min_samples=0):
        return BinningSpec(
            dims=("confidence", "cx", "cy"), counts=(4, 5, 5), min_samples=min_samples
        )

    def test_perfectly_calibrated_grid_is_zero(self):
        rng = np.random.default_rng(5)
        samples = []
        for _ in range(400):
            cx, cy = rng.uniform(0.2, 0.8, 2)
            samples.append(make_sample(1.0, True, box=(cx, cy, 0.1, 0.1)))
        grid = heatmap(samples, self._spec(), ("cx", "cy"))
        occupied = grid.count > 0
        assert np.all(grid.contrib[occupied] == 0.0)

    def test_miscalibration_localized_to_right_half(self):
        rng = np.random.default_rng(6)
        samples = []
        for _ in range(4000):
            cx, cy = rng.uniform(0.05, 0.95, 2)
            score = 0.8
            matched = rng.random() < (0.8 if cx <= 0.5 else 0.3)
            samples.append(make_sample(score, matched, box=(cx, cy, 0.05, 0.05)))
        grid = heatmap(samples, self._spec(), ("cx", "cy"))
        left = np.nanmean(grid.contrib[:2, :])
        right = np.nanmean(grid.contrib[3:, :])
        assert left < 0.1 and right > 0.3

    def test_marginalization_conserves_mass(self):
        rng = np.random.default_rng(8)
        samples = random_matched_samples(rng, 2000)
        spec = self._spec(min_samples=3)
        value, stats = compute_d_ece(samples, spec)
        grid = heatmap(samples, spec, ("cx", "cy"))
        assert grid.count.sum() == stats.retained_samples
        occupied = grid.count > 0
        total = float(
            np.sum(grid.contrib[occupied] * grid.count[occupied] / grid.retained_samples)
        )
        assert abs(total - value) <= 1e-12

    def test_axes_validation(self):
        samples = random_matched_samples(np.random.default_rng(9), 50)
        with pytest.raises(UsageError):
            heatmap(samples, self._spec(), ("cx",))
        with pytest.raises(UsageError):
            heatmap(samples, self._spec(), ("cx", "w"))
        with pytest.raises(UsageError):
            heatmap(samples, self._spec(), ("cx", "cx"))

    def test_rows_enumerate_occupied_cells(self):
        samples = random_matched_samples(np.random.default_rng(10), 500)
        grid = heatmap(samples, self._spec(), ("cx", "cy"))
        rows = list(grid.rows())
        assert sum(r[3] for r in rows) == grid.retained_samples
        assert all(0.0 <= r[2] <= 1.0 for r in rows)

    def test_same_bits_as_the_reference_loop(self):
        scenarios = sorted(synth.builtin_scenarios())
        for seed in range(60):
            rng = np.random.default_rng([18, seed])
            k = int(rng.integers(2, 6))
            dims = tuple(rng.permutation(MEMBER_NAMES)[:k].tolist())
            counts = tuple(rng.integers(2, 7, k).tolist())
            axes = tuple(rng.choice(dims, 2, replace=False).tolist())
            n = int(rng.integers(200, 800))
            if seed % 2:
                samples = random_matched_samples(rng, n)
            else:
                samples = synth.generate(synth.make_scenario(scenarios[seed // 2 % 4], n, seed))
            occupancy = binned_stats(samples, BinningSpec(dims, counts, min_samples=0)).bin_counts
            spec = BinningSpec(dims, counts, int(rng.integers(occupancy.min() + 1, occupancy.max() + 1)))
            assert binned_stats(samples, spec).dropped_bins > 0
            grid, reference = heatmap(samples, spec, axes), reference_heatmap(samples, spec, axes)
            for name in ("contrib", "count", "precision", "confidence"):
                ours, theirs = getattr(grid, name), getattr(reference, name)
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), (seed, name)
            assert grid.retained_samples == reference.retained_samples
            assert list(grid.rows()) == reference_heatmap_rows(reference)


class TestDimensionalityRule:
    def test_lower_dimensional_evaluation_refused(self):
        with pytest.raises(DimensionalityError):
            require_dimensionality_match(("confidence", "cx", "cy"), ("confidence",))
        with pytest.raises(DimensionalityError):
            require_dimensionality_match(("confidence", "w", "h"), ("confidence", "cx", "cy"))

    def test_equal_or_higher_dimensional_allowed(self):
        require_dimensionality_match(("confidence",), ("confidence",))
        require_dimensionality_match(("confidence",), ("confidence", "cx", "cy"))
        require_dimensionality_match(
            ("confidence", "cx", "cy"), ("confidence", "cx", "cy", "w", "h")
        )


class TestBinnedStats:
    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(11)
        samples = random_matched_samples(rng, 700)
        spec = BinningSpec(dims=("confidence", "h"), counts=(6, 4), min_samples=0)
        stats = binned_stats(samples, spec)
        assert stats.bin_counts.sum() == 700
        assert np.all((stats.prec >= 0) & (stats.prec <= 1))
        assert np.all((stats.conf >= 0) & (stats.conf <= 1))
