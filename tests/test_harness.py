import csv
import io
import json

import numpy as np
import pytest

from detcal import calibrators, synth
from detcal.errors import (
    ConvergenceError,
    DataError,
    DimensionalityError,
    NumericalFailureError,
    UsageError,
)
from detcal.features import NAMED_FEATURE_SETS, labels
from detcal.harness import (
    CellResult,
    ProtocolConfig,
    ResultsTable,
    canonical_method,
    render_table,
    run_protocol,
    stratified_split,
)
from detcal.metrics import default_eval_spec
from oracles import make_sample


def fig3_samples(n=20000, seed=0):
    return synth.generate(synth.make_scenario("fig3_boundary_decay", n, seed=seed))


class TestStratifiedSplit:
    def test_disjoint_union_and_both_labels(self):
        rng = np.random.default_rng(0)
        m = (rng.random(500) < 0.3).astype(int)
        train, test = stratified_split(m, 0.7, np.random.default_rng(1))
        assert len(set(train) & set(test)) == 0
        assert sorted(np.concatenate([train, test])) == list(range(500))
        assert set(m[train]) == {0, 1}

    def test_rare_label_goes_to_train(self):
        m = np.array([0] * 99 + [1])
        train, _ = stratified_split(m, 0.7, np.random.default_rng(2))
        assert m[train].sum() == 1

    def test_empty_test_rejected(self):
        m = np.array([0, 1])
        with pytest.raises(DataError):
            stratified_split(m, 0.9, np.random.default_rng(3))


class TestProtocolConfig:
    def test_method_keys_canonicalized(self):
        cfg = ProtocolConfig(methods=("hb", "lc-dep"), feature_sets=("conf",))
        assert cfg.methods == ("hist_binning", "logistic_dep")

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            ProtocolConfig(methods=("isotonic",), feature_sets=("conf",))
        assert canonical_method("bc") == "beta_indep"

    def test_bad_fractions_and_reps(self):
        with pytest.raises(UsageError):
            ProtocolConfig(methods=("lc",), feature_sets=("conf",), train_fraction=1.0)
        with pytest.raises(UsageError):
            ProtocolConfig(methods=("lc",), feature_sets=("conf",), repetitions=0)

    @pytest.mark.parametrize("fraction", ["0.7", None, True, [0.7]])
    def test_train_fraction_must_be_a_real_number(self, fraction):
        with pytest.raises(UsageError, match="train fraction must be a real number"):
            ProtocolConfig(methods=("lc",), feature_sets=("conf",), train_fraction=fraction)

    @pytest.mark.parametrize("setting", [
        {"iou_thresholds": (float("nan"),)}, {"iou_thresholds": (0.5, float("inf"))},
        {"iou_thresholds": (0.0,)}, {"iou_thresholds": (1.5,)}, {"iou_thresholds": ("abc",)},
        {"iou_thresholds": (True,)}, {"iou_thresholds": ("0.5",)}, {"iou_thresholds": 0.5},
        {"min_samples": -3}, {"eps": 0.7}, {"eps": 0.0}, {"eps": float("nan")}, {"eps": "x"},
    ])
    def test_bad_setting_refused(self, setting):
        with pytest.raises(UsageError):
            ProtocolConfig(methods=("lc",), feature_sets=("conf",), **setting)

    @pytest.mark.parametrize("setting, name", [
        ({"repetitions": 1.5}, "repetitions"), ({"repetitions": True}, "repetitions"),
        ({"min_samples": 2.5}, "min_samples"), ({"min_samples": True}, "min_samples"),
    ], ids=["float-repetitions", "bool-repetitions", "float-min-samples", "bool-min-samples"])
    def test_non_integer_count_refused(self, setting, name):
        with pytest.raises(UsageError, match=f"{name} must be an integer >= "):
            ProtocolConfig(methods=("identity",), feature_sets=("conf",), **setting)

    @pytest.mark.parametrize("optimizer", ["x", {"max_iterations": 5}])
    def test_optimizer_must_be_an_optimizer_config(self, optimizer):
        with pytest.raises(UsageError, match="^optimizer must be an OptimizerConfig or None, got "):
            ProtocolConfig(methods=("lc",), feature_sets=("conf",), optimizer=optimizer)

    @pytest.mark.parametrize("setting, value", [
        ("methods", "hb"), ("feature_sets", "conf"), ("eval_feature_sets", "conf"), ("methods", 5),
        ("methods", (["hb"],)), ("feature_sets", (["conf"],)), ("eval_feature_sets", (["conf"],)),
    ])
    def test_name_lists_must_be_sequences_of_names(self, setting, value):
        # A bare string would be taken letter by letter: "unknown method 'h'".
        names = {"methods": ("hb",), "feature_sets": ("conf",), setting: value}
        with pytest.raises(UsageError, match=f"^{setting} must be a sequence of names, got "):
            ProtocolConfig(**names)

    def test_name_lists_may_be_any_sequence(self):
        cfg = ProtocolConfig(methods=["hb"], feature_sets=iter(["conf"]), eval_feature_sets=["conf+xy"])
        assert (cfg.methods, cfg.feature_sets, cfg.eval_feature_sets) == (("hist_binning",), ("conf",), ("conf+xy",))

    def test_numpy_integer_counts_run(self):
        cfg = ProtocolConfig(methods=("identity",), feature_sets=("conf",), repetitions=np.int64(2),
                             min_samples=np.int64(8))
        assert run_protocol(fig3_samples(2000), cfg).repetitions == 2

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None, np.float64(1.0)])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(UsageError, match=r"seed must be an integer >= 0"):
            ProtocolConfig(methods=("lc",), feature_sets=("conf",), seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(5), 2**70])
    def test_integer_seeds_run(self, seed):
        cfg = ProtocolConfig(methods=("identity",), feature_sets=("conf",), repetitions=1, seed=seed)
        assert run_protocol(fig3_samples(2000), cfg).baseline["conf"].mean is not None

    def test_edge_settings_accepted(self):
        cfg = ProtocolConfig(methods=("lc",), feature_sets=("conf",), iou_thresholds=(1, np.float32(0.5)),
                             min_samples=0, eps=0.25)
        assert cfg.iou_thresholds == (1.0, 0.5)

    def test_lower_dimensional_evaluation_refused(self):
        with pytest.raises(DimensionalityError):
            ProtocolConfig(
                methods=("lc",),
                feature_sets=("conf+xy",),
                eval_feature_sets=("conf",),
            )

    def test_higher_dimensional_evaluation_allowed(self):
        cfg = ProtocolConfig(
            methods=("lc",),
            feature_sets=("conf",),
            eval_feature_sets=("conf+xy",),
        )
        assert cfg.resolved_eval_sets() == ("conf+xy",)

    def test_bin_defaults_follow_protocol(self):
        for fs, fit_bins, eval_bins in (("conf", 15, 20), ("conf+xy", 5, 8), ("full", 3, 5)):
            k = len(NAMED_FEATURE_SETS[fs])
            assert calibrators.DEFAULT_CALIBRATION_BINS[k] == fit_bins
            assert default_eval_spec(NAMED_FEATURE_SETS[fs]).counts == (eval_bins,) * k


class TestRunProtocol:
    def test_identity_cell_equals_baseline_exactly(self):
        samples = fig3_samples(5000)
        cfg = ProtocolConfig(methods=("identity",), feature_sets=("conf",), repetitions=1, seed=3)
        table = run_protocol(samples, cfg)
        cell = table.cells[("identity", "conf")]
        base = table.baseline["conf"]
        assert cell.per_rep == base.per_rep
        assert cell.mean == base.mean

    def test_reproducible_for_fixed_config(self):
        samples = fig3_samples(8000)
        cfg = ProtocolConfig(methods=("lc",), feature_sets=("conf",), repetitions=3, seed=9)
        t1 = run_protocol(samples, cfg)
        t2 = run_protocol(samples, cfg)
        assert t1 == t2

    def test_lc_reduces_global_ece_on_fig3(self):
        samples = fig3_samples(20000)
        cfg = ProtocolConfig(methods=("lc",), feature_sets=("conf",), repetitions=2, seed=1)
        table = run_protocol(samples, cfg)
        assert table.cells[("logistic_indep", "conf")].mean < 0.4 * table.baseline["conf"].mean

    def test_dependent_beats_confidence_only_at_3d(self):
        samples = fig3_samples(30000)
        base_kwargs = dict(repetitions=2, seed=2)
        k1 = run_protocol(
            samples,
            ProtocolConfig(
                methods=("lc",),
                feature_sets=("conf",),
                eval_feature_sets=("conf+xy",),
                **base_kwargs,
            ),
        )
        dep = run_protocol(
            samples,
            ProtocolConfig(methods=("lc-dep",), feature_sets=("conf+xy",), **base_kwargs),
        )
        assert (
            dep.cells[("logistic_dep", "conf+xy")].mean
            < k1.cells[("logistic_indep", "conf")].mean
        )

    def test_perfectly_calibrated_cells_near_baseline(self):
        samples = synth.generate(synth.make_scenario("perfectly_calibrated", 20000, seed=4))
        cfg = ProtocolConfig(
            methods=("hb", "lc", "lc-dep", "bc", "bc-dep"),
            feature_sets=("conf",),
            repetitions=2,
            seed=6,
        )
        table = run_protocol(samples, cfg)
        base = table.baseline["conf"].mean
        for method in cfg.methods:
            cell = table.cells[(method, "conf")]
            assert cell.mean is not None
            assert cell.mean <= 2.0 * base + 0.003

    def test_empty_bins_marked_not_fatal(self):
        samples = fig3_samples(200)
        cfg = ProtocolConfig(
            methods=("identity",),
            feature_sets=("conf",),
            repetitions=2,
            seed=7,
            min_samples=10**6,
        )
        table = run_protocol(samples, cfg)
        cell = table.cells[("identity", "conf")]
        assert cell.mean is None and cell.ok_repetitions == 0
        assert cell.errors

    def test_single_label_input_rejected(self):
        samples = [make_sample(0.5, True, gt_index=i) for i in range(50)]
        cfg = ProtocolConfig(methods=("lc",), feature_sets=("conf",))
        with pytest.raises(DataError):
            run_protocol(samples, cfg)

    def test_split_fractions_respected(self):
        samples = fig3_samples(1000)
        m = labels(samples)
        train, test = stratified_split(m, 0.7, np.random.default_rng(0))
        assert abs(len(train) - 700) <= 2 and abs(len(test) - 300) <= 2


class TestFaultIsolation:
    @pytest.mark.parametrize("error", [ConvergenceError, NumericalFailureError])
    def test_failing_fit_marks_only_its_own_cell(self, error, monkeypatch):
        real_fit = calibrators.fit

        def failing_fit(method, samples, members, **kwargs):
            if tuple(members) == NAMED_FEATURE_SETS["conf+xy"]:
                raise error("injected fit failure")
            return real_fit(method, samples, members, **kwargs)

        monkeypatch.setattr(calibrators, "fit", failing_fit)
        cfg = ProtocolConfig(
            methods=("lc",), feature_sets=("conf", "conf+xy"), repetitions=2, seed=4
        )
        table = run_protocol(fig3_samples(5000), cfg)
        failed = table.cells[("logistic_indep", "conf+xy")]
        assert failed.mean is None and failed.ok_repetitions == 0
        assert len(failed.errors) == 2
        assert all("injected fit failure" in e for e in failed.errors)
        ok = table.cells[("logistic_indep", "conf")]
        assert ok.mean is not None and ok.errors == ()
        assert table.baseline["conf"].errors == ()
        rows = render_table(table, "text").splitlines()
        assert rows[-1].split("|")[2].strip() == "err"


class TestProtocolWithMatching:
    @pytest.mark.parametrize("iou", ["x", True, [0.5]])
    def test_iou_label_must_be_a_real_number(self, iou):
        cfg = ProtocolConfig(methods=("identity",), feature_sets=("conf",), repetitions=1)
        with pytest.raises(UsageError, match="iou must be a real number"):
            run_protocol(fig3_samples(500), cfg, iou=iou)

    def test_tables_per_iou_threshold(self):
        from detcal.detections import BoxGeometry, Detection, GroundTruthObject
        from detcal.harness import run_protocol_with_matching

        rng = np.random.default_rng(20)
        detections, truth = [], []
        for i in range(120):
            cx, cy = rng.uniform(0.3, 0.7, 2)
            gt_box = BoxGeometry(cx, cy, 0.2, 0.2)
            truth.append(GroundTruthObject(i, 1, gt_box))
            shift = float(rng.uniform(0.0, 0.12))
            detections.append(Detection(i, 1, float(rng.uniform(0.3, 0.95)), BoxGeometry(cx + shift, cy, 0.2, 0.2)))
        cfg = ProtocolConfig(
            methods=("identity",),
            feature_sets=("conf",),
            repetitions=1,
            seed=0,
            min_samples=0,
            iou_thresholds=(0.5, 0.9),
        )
        tables = run_protocol_with_matching(detections, truth, cfg)
        assert [t.iou for t in tables] == [0.5, 0.9]
        for table in tables:
            assert table.baseline["conf"].mean is not None
        assert "IoU@0.5" in render_table(tables[0], "text")


class TestRenderTable:
    def _table(self):
        samples = fig3_samples(5000)
        cfg = ProtocolConfig(
            methods=("identity", "hb"), feature_sets=("conf",), repetitions=2, seed=8
        )
        return run_protocol(samples, cfg)

    def test_text_layout(self):
        table = self._table()
        text = render_table(table, "text")
        lines = text.strip().splitlines()
        assert lines[0].startswith("D-ECE [%] over 2 repetitions")
        assert lines[1].split("|")[0].strip() == "method"
        assert lines[3].startswith("baseline")
        assert any(line.startswith("identity") for line in lines)
        assert any(line.startswith("hb") for line in lines)

    def test_values_rendered_in_percent_with_three_decimals(self):
        table = self._table()
        text = render_table(table, "text")
        base = table.baseline["conf"]
        assert f"{100.0 * base.mean:.3f}" in text

    def test_csv_round_trips(self):
        table = self._table()
        rows = list(csv.reader(io.StringIO(render_table(table, "csv"))))
        assert rows[0] == [
            "method",
            "feature_set",
            "eval_feature_set",
            "iou",
            "mean_dece_pct",
            "std_dece_pct",
            "repetitions_ok",
        ]
        assert rows[1][0] == "baseline"
        assert len(rows) == 1 + 1 + 2  # header, baseline, two methods

    def test_json_parses(self):
        table = self._table()
        doc = json.loads(render_table(table, "json"))
        assert doc["repetitions"] == 2
        assert doc["baseline"]["conf"]["mean_dece_pct"] is not None
        assert {c["method"] for c in doc["cells"]} == {"identity", "hb"}

    def test_error_cells_render_as_err(self):
        table = self._table()
        broken = dict(table.cells)
        broken[("hist_binning", "conf")] = CellResult(None, None, (None, None), ("boom",))
        import dataclasses

        table2 = dataclasses.replace(table, cells=broken)
        assert "err" in render_table(table2, "text")

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            render_table(self._table(), "yaml")

    def test_single_cell_table_renders_one_data_row_plus_baseline(self):
        samples = fig3_samples(4000)
        cfg = ProtocolConfig(methods=("identity",), feature_sets=("conf",), repetitions=1)
        lines = render_table(run_protocol(samples, cfg), "text").strip().splitlines()
        # title, header, rule, baseline row, one method row
        assert len(lines) == 5

    def test_full_method_by_feature_grid_renders_paper_columns(self):
        from detcal.optimizer import OptimizerConfig

        samples = fig3_samples(4000)
        cfg = ProtocolConfig(
            methods=("hb", "lc", "lc-dep", "bc", "bc-dep"),
            feature_sets=("conf", "conf+xy", "conf+wh", "full"),
            repetitions=1,
            seed=1,
            optimizer=OptimizerConfig(max_iterations=60),
        )
        table = run_protocol(samples, cfg)
        text = render_table(table, "text")
        header = text.splitlines()[1]
        assert [c.strip() for c in header.split("|")] == [
            "method",
            "conf",
            "conf+xy",
            "conf+wh",
            "full",
        ]
        rows = [line.split("|")[0].strip() for line in text.splitlines()[3:]]
        assert rows == ["baseline", "hb", "lc", "lc-dep", "bc", "bc-dep"]


def pinned_table(iou):
    """A hand-built table: a repeated eval set, a conf->full column and an err cell."""
    wide = CellResult(0.15625, 0.0234375, (0.171875, 0.140625))
    return ResultsTable(
        methods=("identity", "logistic_dep"),
        feature_sets=("conf", "conf+xy", "full"),
        eval_feature_sets=("full", "conf+xy", "full"),
        repetitions=2,
        iou=iou,
        baseline={
            "full": wide,
            "conf+xy": CellResult(0.03125, 0.0, (0.03125, None), ("rep 1 baseline conf+xy: empty",)),
        },
        cells={
            ("identity", "conf"): wide,
            ("identity", "conf+xy"): CellResult(0.03125, 0.0, (0.03125, None), ("rep 1 identity/conf+xy: empty",)),
            ("identity", "full"): wide,
            ("logistic_dep", "conf"): CellResult(0.0123456789, 0.00098765, (0.0130440539, 0.0116473039)),
            ("logistic_dep", "conf+xy"): CellResult(
                None, None, (None, None), ("rep 0 logistic_dep/conf+xy: a", "rep 1 logistic_dep/conf+xy: b")
            ),
            ("logistic_dep", "full"): CellResult(0.0078125, 0.001953125, (0.0091935, 0.0064315)),
        },
    )


# Text rows keep the padding of their last column, trailing spaces included.
PINNED_TEXT = """\
D-ECE [%] over 2 repetitions, IoU@0.5
method   | conf->full     | conf+xy       | full          
---------+----------------+---------------+---------------
baseline | 15.625 ± 2.344 | 3.125 ± 0.000 | 15.625 ± 2.344
identity | 15.625 ± 2.344 | 3.125 ± 0.000 | 15.625 ± 2.344
lc-dep   | 1.235 ± 0.099  | err           | 0.781 ± 0.195 
"""

PINNED_CSV = """\
method,feature_set,eval_feature_set,iou,mean_dece_pct,std_dece_pct,repetitions_ok
baseline,conf,full,0.5,15.625,2.344,2
baseline,conf+xy,conf+xy,0.5,3.125,0.000,1
baseline,full,full,0.5,15.625,2.344,2
identity,conf,full,0.5,15.625,2.344,2
identity,conf+xy,conf+xy,0.5,3.125,0.000,1
identity,full,full,0.5,15.625,2.344,2
lc-dep,conf,full,0.5,1.235,0.099,2
lc-dep,conf+xy,conf+xy,0.5,,,0
lc-dep,full,full,0.5,0.781,0.195,2
"""

PINNED_JSON = """\
{
  "repetitions": 2,
  "iou": 0.5,
  "columns": [
    "conf->full",
    "conf+xy",
    "full"
  ],
  "baseline": {
    "full": {
      "mean_dece_pct": 15.625,
      "std_dece_pct": 2.34375,
      "repetitions_ok": 2,
      "errors": []
    },
    "conf+xy": {
      "mean_dece_pct": 3.125,
      "std_dece_pct": 0.0,
      "repetitions_ok": 1,
      "errors": [
        "rep 1 baseline conf+xy: empty"
      ]
    }
  },
  "cells": [
    {
      "method": "identity",
      "feature_set": "conf",
      "eval_feature_set": "full",
      "mean_dece_pct": 15.625,
      "std_dece_pct": 2.34375,
      "repetitions_ok": 2,
      "errors": []
    },
    {
      "method": "identity",
      "feature_set": "conf+xy",
      "eval_feature_set": "conf+xy",
      "mean_dece_pct": 3.125,
      "std_dece_pct": 0.0,
      "repetitions_ok": 1,
      "errors": [
        "rep 1 identity/conf+xy: empty"
      ]
    },
    {
      "method": "identity",
      "feature_set": "full",
      "eval_feature_set": "full",
      "mean_dece_pct": 15.625,
      "std_dece_pct": 2.34375,
      "repetitions_ok": 2,
      "errors": []
    },
    {
      "method": "lc-dep",
      "feature_set": "conf",
      "eval_feature_set": "full",
      "mean_dece_pct": 1.2345678900000001,
      "std_dece_pct": 0.098765,
      "repetitions_ok": 2,
      "errors": []
    },
    {
      "method": "lc-dep",
      "feature_set": "conf+xy",
      "eval_feature_set": "conf+xy",
      "mean_dece_pct": null,
      "std_dece_pct": null,
      "repetitions_ok": 0,
      "errors": [
        "rep 0 logistic_dep/conf+xy: a",
        "rep 1 logistic_dep/conf+xy: b"
      ]
    },
    {
      "method": "lc-dep",
      "feature_set": "full",
      "eval_feature_set": "full",
      "mean_dece_pct": 0.78125,
      "std_dece_pct": 0.1953125,
      "repetitions_ok": 2,
      "errors": []
    }
  ]
}
"""


class TestRenderPinned:
    """Byte-for-byte renders of a fixed table, recorded before the renderers shared a row list."""

    def test_with_iou(self):
        table = pinned_table(0.5)
        assert render_table(table, "text") == PINNED_TEXT
        assert render_table(table, "csv") == PINNED_CSV
        assert render_table(table, "json") == PINNED_JSON

    def test_without_iou(self):
        table = pinned_table(None)
        assert render_table(table, "text") == PINNED_TEXT.replace(", IoU@0.5", "")
        assert render_table(table, "csv") == PINNED_CSV.replace(",0.5,", ",,")
        assert render_table(table, "json") == PINNED_JSON.replace('"iou": 0.5,', '"iou": null,')

    def test_unknown_format_message(self):
        with pytest.raises(UsageError, match=r"^unknown table format 'yaml'; expected text, csv, or json$"):
            render_table(pinned_table(None), "yaml")
