import numpy as np
import pytest

from detcal import synth
from detcal.errors import ScenarioError, UsageError, ValidationError
from detcal.matching import MatchedSample
from detcal.metrics import BinningSpec, compute_d_ece, heatmap
from detcal.synth import ScenarioSpec, builtin_scenarios, generate, make_scenario
from oracles import record_bits, reference_generate


def constant_spec(n, value=0.7, seed=0):
    return ScenarioSpec(
        name="constant",
        n_samples=n,
        precision_field=lambda boxes: np.full(len(boxes), value),
        confidence_field=lambda boxes, p: p.copy(),
        box_sampler=synth.interior_box_sampler,
        seed=seed,
    )


class TestGenerate:
    def test_constant_field_law_of_large_numbers(self):
        samples = generate(constant_spec(100000))
        frac = sum(s.matched for s in samples) / len(samples)
        assert 0.69 <= frac <= 0.71
        spec = BinningSpec(dims=("confidence",), counts=(20,), min_samples=0)
        value, _ = compute_d_ece(samples, spec)
        assert value < 0.01

    def test_precision_one_matches_everything(self):
        spec = ScenarioSpec(
            name="sure",
            n_samples=500,
            precision_field=lambda boxes: np.ones(len(boxes)),
            confidence_field=lambda boxes, p: np.full(len(boxes), 0.9),
            box_sampler=synth.interior_box_sampler,
            seed=1,
        )
        samples = generate(spec)
        assert all(s.matched == 1 for s in samples)

    def test_samples_carry_matcher_schema(self):
        samples = generate(constant_spec(100))
        for s in samples:
            assert isinstance(s, MatchedSample)
            if s.matched:
                assert s.gt_index is not None and s.iou == 1.0
            else:
                assert s.gt_index is None and s.iou == 0.0
        assert len({s.detection.image_id for s in samples}) == 100

    def test_deterministic_per_seed(self):
        a = generate(constant_spec(500, seed=42))
        b = generate(constant_spec(500, seed=42))
        assert a == b
        c = generate(constant_spec(500, seed=43))
        assert a != c

    def test_field_out_of_range_rejected(self):
        spec = ScenarioSpec(
            name="bad",
            n_samples=10,
            precision_field=lambda boxes: np.full(len(boxes), 1.5),
            confidence_field=lambda boxes, p: p,
            box_sampler=synth.interior_box_sampler,
            seed=0,
        )
        with pytest.raises(ScenarioError):
            generate(spec)

    def test_bad_sampler_shape_rejected(self):
        spec = ScenarioSpec(
            name="bad",
            n_samples=10,
            precision_field=lambda boxes: np.full(len(boxes), 0.5),
            confidence_field=lambda boxes, p: p,
            box_sampler=lambda rng, n: rng.random((n, 3)),
            seed=0,
        )
        with pytest.raises(ScenarioError):
            generate(spec)

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_records_match_per_row_construction(self, name):
        spec = make_scenario(name, 700, seed=11)
        assert [record_bits(s) for s in generate(spec)] == [record_bits(s) for s in reference_generate(spec)]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0.01, 0.5, 0.2, 0.1), r"box extends 0\.0900 beyond the image, above the 2% clamping tolerance: "
                                    r"BoxGeometry\(cx=0\.01, cy=0\.5, w=0\.2, h=0\.1\)$"),
            ((1.5, 0.5, 0.1, 0.1), r"box center out of range: cx=1\.5, cy=0\.5$"),
            ((0.5, 0.5, 0.0, 0.1), r"box size out of range: w=0\.0, h=0\.1$"),
        ],
        ids=["out-of-image", "center", "size"],
    )
    def test_bad_box_raises_the_constructor_error(self, bad, message):
        def sampler(rng, n):
            boxes = synth.interior_box_sampler(rng, n)
            boxes[3] = bad
            boxes[7] = (0.5, 0.5, 2.0, 2.0)
            return boxes

        spec = ScenarioSpec(
            name="bad box",
            n_samples=10,
            precision_field=lambda boxes: np.full(len(boxes), 0.5),
            confidence_field=lambda boxes, p: p.copy(),
            box_sampler=sampler,
        )
        with pytest.raises(ValidationError, match=message) as raised:
            generate(spec)
        with pytest.raises(ValidationError) as reference:
            reference_generate(spec)
        assert str(raised.value) == str(reference.value)

    def test_sample_count_validated(self):
        with pytest.raises(UsageError):
            constant_spec(0)

    def test_region_precision_matches_field_mean(self):
        spec = make_scenario("fig3_boundary_decay", 50000, seed=3)
        samples = generate(spec)
        boxes = np.array(
            [[s.detection.box.cx, s.detection.box.cy, s.detection.box.w, s.detection.box.h] for s in samples]
        )
        field = spec.precision_field(boxes)
        m = np.array([s.matched for s in samples])
        for region in (boxes[:, 0] < 0.3, boxes[:, 0] > 0.7, boxes[:, 1] < 0.5):
            n = int(region.sum())
            assert n >= 1000
            expected = field[region].mean()
            se = np.sqrt(expected * (1 - expected) / n)
            assert abs(m[region].mean() - expected) <= 3 * se


class TestBuiltinScenarios:
    def test_catalog_contains_required_names(self):
        names = set(builtin_scenarios())
        assert {
            "fig3_boundary_decay",
            "uniform_overconfident",
            "scale_dependent",
            "perfectly_calibrated",
        } <= names

    def test_unknown_name_errors(self):
        with pytest.raises(UsageError):
            make_scenario("does_not_exist", 10)

    def test_perfectly_calibrated_low_dece(self):
        samples = generate(make_scenario("perfectly_calibrated", 100000, seed=5))
        spec = BinningSpec(dims=("confidence",), counts=(20,), min_samples=0)
        value, _ = compute_d_ece(samples, spec)
        assert value < 0.01

    def test_boundary_decay_heatmap_rises_toward_edges(self):
        samples = generate(make_scenario("fig3_boundary_decay", 60000, seed=6))
        spec = BinningSpec(dims=("confidence", "cx", "cy"), counts=(8, 8, 8), min_samples=8)
        grid = heatmap(samples, spec, ("cx", "cy"))
        interior = np.nanmean(grid.contrib[3:5, 3:5])
        border_cells = np.concatenate(
            [grid.contrib[0, :], grid.contrib[7, :], grid.contrib[1:7, 0], grid.contrib[1:7, 7]]
        )
        border = np.nanmean(border_cells)
        assert border > interior + 0.05

    def test_scale_dependent_errors_grow_with_box_area(self):
        samples = generate(make_scenario("scale_dependent", 60000, seed=7))
        spec = BinningSpec(dims=("confidence", "w", "h"), counts=(8, 8, 8), min_samples=8)
        grid = heatmap(samples, spec, ("w", "h"))
        # Box sizes only reach 0.2, so just the two lowest bins per axis are
        # occupied; the error must grow from the small-box to the large-box cell.
        small = grid.contrib[0, 0]
        large = grid.contrib[1, 1]
        assert np.isfinite(small) and np.isfinite(large)
        assert large > small + 0.05

    def test_uniform_overconfident_recovered_by_logistic_map(self):
        from dataclasses import replace

        from detcal.calibrators import apply, fit_parametric

        samples = generate(make_scenario("uniform_overconfident", 50000, seed=8))
        spec = BinningSpec(dims=("confidence",), counts=(20,), min_samples=0)
        baseline, _ = compute_d_ece(samples, spec)
        model = fit_parametric("logistic_indep", samples, ("confidence",))
        calibrated = [
            replace(s, detection=replace(s.detection, score=float(q)))
            for s, q in zip(samples, apply(model, samples))
        ]
        post, _ = compute_d_ece(calibrated, spec)
        assert post <= 0.1 * baseline

    def test_scenarios_emit_declared_sample_count_and_seeded(self):
        for name in builtin_scenarios():
            a = generate(make_scenario(name, 100, seed=1))
            b = generate(make_scenario(name, 100, seed=1))
            assert len(a) == 100 and a == b


# Column sums of ``values`` (confidence, cx, cy, w, h) and the matched count of
# each built-in scenario at n = 1,000, recorded from the scenario factories as
# they stood before they became one table; they pin every field's arithmetic.
SCENARIO_PINS = {
    ("fig3_boundary_decay", 0): ((715.6675051872098, 513.5250706138029, 484.73756241046635,
                                  77.11842071424255, 76.71442819875237), 581),
    ("fig3_boundary_decay", 7): ((714.8289585843446, 495.3650008145148, 504.2002372465121,
                                  79.75252081100639, 77.3288869817842), 629),
    ("perfectly_calibrated", 0): ((619.4438111123418, 513.5250706138029, 484.73756241046635,
                                   77.11842071424255, 76.71442819875237), 597),
    ("perfectly_calibrated", 7): ((620.2728501286699, 495.3650008145148, 504.2002372465121,
                                   79.75252081100639, 77.3288869817842), 638),
    ("scale_dependent", 0): ((765.4756888390448, 513.5250706138029, 484.73756241046635,
                              77.11842071424255, 76.71442819875237), 620),
    ("scale_dependent", 7): ((764.8691211325934, 495.3650008145148, 504.2002372465121,
                              79.75252081100639, 77.3288869817842), 642),
    ("uniform_overconfident", 0): ((596.02578512768, 513.5250706138029, 484.73756241046635,
                                    77.11842071424255, 76.71442819875237), 372),
    ("uniform_overconfident", 7): ((601.2700284682103, 495.3650008145148, 504.2002372465121,
                                    79.75252081100639, 77.3288869817842), 405),
}


class TestScenarioPins:
    @pytest.mark.parametrize("name, seed", sorted(SCENARIO_PINS))
    def test_draw_matches_recorded_sums(self, name, seed):
        sums, matched = SCENARIO_PINS[name, seed]
        samples = generate(make_scenario(name, 1000, seed))
        np.testing.assert_allclose(samples.values.sum(axis=0), sums, rtol=1e-12, atol=0)
        assert int(samples.matched.sum()) == matched

    @pytest.mark.parametrize("name, seed", sorted(SCENARIO_PINS))
    def test_catalog_factory_is_make_scenario(self, name, seed):
        a = generate(builtin_scenarios()[name](1000, seed))
        b = generate(make_scenario(name, 1000, seed))
        assert a.values.tobytes() == b.values.tobytes()
        assert a.matched.tolist() == b.matched.tolist()
        assert a.gt_index.tolist() == b.gt_index.tolist()


class TestSeedAndSize:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, np.float64(2.0)])
    def test_bad_seed_refused_before_any_draw(self, seed):
        with pytest.raises(UsageError, match=r"seed must be an integer >= 0"):
            make_scenario("fig3_boundary_decay", 10, seed)
        with pytest.raises(UsageError, match=r"seed must be an integer >= 0"):
            constant_spec(10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), 2**70])
    def test_integer_seeds_accepted(self, seed):
        assert len(generate(make_scenario("perfectly_calibrated", 5, seed))) == 5

    @pytest.mark.parametrize("n", [10.0, 2.5, "10", None])
    def test_non_integer_sample_count_refused(self, n):
        with pytest.raises(UsageError, match=r"sample count must be an integer"):
            make_scenario("scale_dependent", n)

    def test_bool_sample_count_refused(self):
        with pytest.raises(UsageError, match=r"sample count must be an integer >= 1, got True"):
            make_scenario("fig3_boundary_decay", True, 1)

    def test_numpy_integer_sample_count_accepted(self):
        assert len(generate(make_scenario("scale_dependent", np.int32(12)))) == 12

    def test_count_past_the_index_range_refused(self):
        with pytest.raises(UsageError, match=r"sample count 1180591620717411303424 exceeds"):
            make_scenario("fig3_boundary_decay", 2**70)

    def test_draw_numpy_cannot_allocate_is_a_usage_error(self):
        # 2**50 samples need 8 PiB per column, more than any address space maps.
        spec = make_scenario("fig3_boundary_decay", 2**50)
        with pytest.raises(UsageError, match=r"cannot allocate a draw of 1125899906842624 samples"):
            generate(spec)
