"""Repeated-split evaluation protocol and results tables.

The protocol mirrors the paper-style benchmark loop: repeatedly split the
matched samples into a calibration and a test portion, fit every requested
(method, feature set) pair on the calibration portion, and score the test
portion with a D-ECE binning of at least the fitted dimensionality. The
uncalibrated scores evaluated identically form the baseline row.

The samples are read into :class:`SampleColumns` once per run; a split takes
rows of them, and a cell swaps the calibrated scores into its test rows.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import calibrators
from .errors import DataError, EmptyMetricError, NumericalError, UsageError, check_count
from .features import DEFAULT_CLIP, SampleColumns, _check_eps, columns, feature_set, labels
from .matching import MatchedSample, match_detections
from .metrics import DEFAULT_MIN_SAMPLES, compute_d_ece, default_eval_spec, require_dimensionality_match
from .optimizer import OptimizerConfig

# Short command-line keys for the calibration methods; "identity" is a
# passthrough used to sanity-check the harness against its own baseline.
METHOD_KEYS = {
    "hb": "hist_binning",
    "lc": "logistic_indep",
    "lc-dep": "logistic_dep",
    "bc": "beta_indep",
    "bc-dep": "beta_dep",
    "identity": "identity",
}
_METHOD_SHORT = {v: k for k, v in METHOD_KEYS.items()}


def canonical_method(name: str) -> str:
    """Resolve a short CLI key or full method name to the canonical name."""
    if name in METHOD_KEYS:
        return METHOD_KEYS[name]
    if name in METHOD_KEYS.values():
        return name
    raise UsageError(f"unknown method {name!r}; expected one of {sorted(METHOD_KEYS)}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Settings for :func:`run_protocol`.

    ``eval_feature_sets`` optionally overrides, entry by entry, the feature
    set used for scoring; each override must cover at least the dimensions
    of the corresponding fitted feature set.
    """

    methods: tuple[str, ...]
    feature_sets: tuple[str, ...]
    train_fraction: float = 0.7
    repetitions: int = 20
    seed: int = 0
    min_samples: int = DEFAULT_MIN_SAMPLES
    iou_thresholds: tuple[float, ...] = ()
    eval_feature_sets: tuple[str, ...] | None = None
    eps: float = DEFAULT_CLIP
    optimizer: OptimizerConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(canonical_method(m) for m in self.methods))
        object.__setattr__(self, "feature_sets", tuple(self.feature_sets))
        if not self.methods or not self.feature_sets:
            raise UsageError("protocol needs at least one method and one feature set")
        if len(set(self.methods)) != len(self.methods):
            raise UsageError(f"duplicate methods in {self.methods}")
        if len(set(self.feature_sets)) != len(self.feature_sets):
            raise UsageError(f"duplicate feature sets in {self.feature_sets}")
        if not 0.0 < self.train_fraction < 1.0:
            raise UsageError(f"train fraction must lie in (0, 1), got {self.train_fraction}")
        check_count("repetitions", self.repetitions, 1)
        check_count("seed", self.seed, 0, message=f"seed must be an integer >= 0, got {self.seed!r}")
        fit_sets = [feature_set(name) for name in self.feature_sets]
        if self.eval_feature_sets is not None:
            object.__setattr__(self, "eval_feature_sets", tuple(self.eval_feature_sets))
            if len(self.eval_feature_sets) != len(self.feature_sets):
                raise UsageError("eval_feature_sets must parallel feature_sets")
            for fit_fs, eval_name in zip(fit_sets, self.eval_feature_sets):
                require_dimensionality_match(fit_fs.members, feature_set(eval_name).members)
        try:
            object.__setattr__(self, "iou_thresholds", tuple(map(float, self.iou_thresholds)))
        except (TypeError, ValueError):
            raise UsageError(f"IoU thresholds must be numbers, got {self.iou_thresholds!r}") from None
        for t in self.iou_thresholds:
            if not 0.0 < t <= 1.0:
                raise UsageError(f"IoU thresholds must lie in (0, 1], got {t}")
        check_count("min_samples", self.min_samples, 0)
        object.__setattr__(self, "eps", _check_eps(self.eps))

    def resolved_eval_sets(self) -> tuple[str, ...]:
        return self.eval_feature_sets or self.feature_sets


@dataclass(frozen=True)
class CellResult:
    """Mean and spread of the D-ECE over repetitions (as fractions, not percent)."""

    mean: float | None
    std: float | None
    per_rep: tuple[float | None, ...]
    errors: tuple[str, ...] = ()

    @property
    def ok_repetitions(self) -> int:
        return sum(v is not None for v in self.per_rep)


@dataclass(frozen=True)
class ResultsTable:
    """Per-(method, feature set) D-ECE summary plus the uncalibrated baseline row."""

    methods: tuple[str, ...]
    feature_sets: tuple[str, ...]
    eval_feature_sets: tuple[str, ...]
    repetitions: int
    iou: float | None
    baseline: dict[str, CellResult]
    cells: dict[tuple[str, str], CellResult]


def stratified_split(
    match_labels: np.ndarray, train_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint train/test index split keeping both labels in the train side."""
    train_parts, test_parts = [], []
    for value in (0, 1):
        idx = np.flatnonzero(match_labels == value)
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        n_train = int(round(train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    if test.size == 0:
        raise DataError("split left an empty test portion; reduce the train fraction")
    return train, test


def _d_ece(samples: SampleColumns, cfg: ProtocolConfig, eval_fs_name: str) -> float:
    spec = default_eval_spec(feature_set(eval_fs_name).members, cfg.min_samples)
    return compute_d_ece(samples, spec)[0]


def _aggregate(values: list[float | None], errors: list[str]) -> CellResult:
    ok = [v for v in values if v is not None]
    if not ok:
        return CellResult(mean=None, std=None, per_rep=tuple(values), errors=tuple(errors))
    mean = float(np.mean(ok))
    std = float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0
    return CellResult(mean=mean, std=std, per_rep=tuple(values), errors=tuple(errors))


def run_protocol(
    samples: Sequence[MatchedSample] | SampleColumns,
    cfg: ProtocolConfig,
    *,
    iou: float | None = None,
    threads: int = 1,
) -> ResultsTable:
    """Run the repeated-split protocol over pre-matched samples.

    ``threads`` is accepted for older callers and ignored: repetitions run
    one after another, since a thread pool over them measured slower.
    """
    if not samples:
        raise DataError("protocol needs a nonempty sample list")
    samples = columns(samples)
    m = labels(samples)
    if m.sum() == 0 or m.sum() == len(m):
        raise DataError("protocol needs both match labels present in the samples")

    eval_sets = cfg.resolved_eval_sets()
    baseline_keys = list(dict.fromkeys(eval_sets))
    cell_keys = [(method, fs_name) for method in cfg.methods for fs_name in cfg.feature_sets]
    # One value list and one error list per key, the baseline's by eval-set name and a cell's
    # by (method, feature set), so each error lands in exactly its own cell.
    values: dict[str | tuple[str, str], list[float | None]] = {k: [] for k in baseline_keys + cell_keys}
    errors: dict[str | tuple[str, str], list[str]] = {k: [] for k in values}
    for rep in range(cfg.repetitions):
        rng = np.random.default_rng([cfg.seed, rep])
        train_idx, test_idx = stratified_split(m, cfg.train_fraction, rng)
        train, test = samples.take(train_idx), samples.take(test_idx)
        for eval_fs_name in baseline_keys:
            value = None
            try:
                value = _d_ece(test, cfg, eval_fs_name)
            except EmptyMetricError as exc:
                errors[eval_fs_name].append(f"rep {rep} baseline {eval_fs_name}: {exc}")
            values[eval_fs_name].append(value)
        for method in cfg.methods:
            for fit_fs_name, eval_fs_name in zip(cfg.feature_sets, eval_sets):
                key, value = (method, fit_fs_name), None
                try:
                    if method == "identity":
                        scores = test.values[:, 0]
                    else:
                        model = calibrators.fit(method, train, feature_set(fit_fs_name).members,
                                                config=cfg.optimizer, eps=cfg.eps)
                        scores = calibrators.apply(model, test, cfg.eps)
                    value = _d_ece(test.with_scores(scores), cfg, eval_fs_name)
                except (EmptyMetricError, NumericalError) as exc:
                    # Fault isolation: one unevaluable cell must not kill the run.
                    errors[key].append(f"rep {rep} {method}/{fit_fs_name}: {exc}")
                values[key].append(value)

    summary = {key: _aggregate(values[key], errors[key]) for key in values}
    return ResultsTable(
        methods=cfg.methods,
        feature_sets=cfg.feature_sets,
        eval_feature_sets=eval_sets,
        repetitions=cfg.repetitions,
        iou=iou,
        baseline={key: summary[key] for key in baseline_keys},
        cells={key: summary[key] for key in cell_keys},
    )


def run_protocol_with_matching(detections, ground_truth, cfg: ProtocolConfig) -> list[ResultsTable]:
    """Match at every configured IoU threshold and run the protocol for each."""
    thresholds = cfg.iou_thresholds or (0.6,)
    tables = []
    for threshold in thresholds:
        samples = match_detections(detections, ground_truth, threshold)
        tables.append(run_protocol(samples, cfg, iou=threshold))
    return tables


def _pct(value: float | None) -> str:
    return "" if value is None else f"{100.0 * value:.3f}"


def _fmt_cell(cell: CellResult) -> str:
    return "err" if cell.mean is None else f"{_pct(cell.mean)} ± {_pct(cell.std)}"


def render_table(table: ResultsTable, fmt: str = "text") -> str:
    """Serialize a results table as aligned text, CSV, or JSON (values in percent)."""
    if fmt == "text":
        return _render_text(table)
    if fmt == "csv":
        return _render_csv(table)
    if fmt == "json":
        return _render_json(table)
    raise UsageError(f"unknown table format {fmt!r}; expected text, csv, or json")


def _column_names(table: ResultsTable) -> list[str]:
    return [fit_fs if fit_fs == eval_fs else f"{fit_fs}->{eval_fs}"
            for fit_fs, eval_fs in zip(table.feature_sets, table.eval_feature_sets)]


def _rows(table: ResultsTable) -> list[tuple[str, str, str, CellResult]]:
    """``(label, fit set, eval set, cell)`` per column, for the baseline and then each method.

    The first ``len(table.feature_sets)`` rows are the baseline's, one per
    column even where columns share an eval set.
    """
    column_sets = list(zip(table.feature_sets, table.eval_feature_sets))
    rows = [("baseline", fit_fs, eval_fs, table.baseline[eval_fs]) for fit_fs, eval_fs in column_sets]
    for method in table.methods:
        label = _METHOD_SHORT.get(method, method)
        rows += [(label, fit_fs, eval_fs, table.cells[(method, fit_fs)]) for fit_fs, eval_fs in column_sets]
    return rows


def _render_text(table: ResultsTable) -> str:
    rows, n_columns = _rows(table), len(table.feature_sets)
    grid = [["method"] + _column_names(table)]
    for start in range(0, len(rows), n_columns):
        grid.append([rows[start][0]] + [_fmt_cell(cell) for *_, cell in rows[start:start + n_columns]])
    widths = [max(map(len, column)) for column in zip(*grid)]
    lines = [" | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in grid]
    title = f"D-ECE [%] over {table.repetitions} repetitions"
    if table.iou is not None:
        title += f", IoU@{table.iou:g}"
    return "\n".join([title, lines[0], "-+-".join("-" * w for w in widths), *lines[1:]]) + "\n"


def _render_csv(table: ResultsTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["method", "feature_set", "eval_feature_set", "iou", "mean_dece_pct", "std_dece_pct", "repetitions_ok"]
    )
    iou = "" if table.iou is None else f"{table.iou:g}"
    for label, fit_fs, eval_fs, cell in _rows(table):
        writer.writerow([label, fit_fs, eval_fs, iou, _pct(cell.mean), _pct(cell.std), str(cell.ok_repetitions)])
    return buf.getvalue()


def _cell_json(cell: CellResult) -> dict:
    return {
        "mean_dece_pct": None if cell.mean is None else 100.0 * cell.mean,
        "std_dece_pct": None if cell.std is None else 100.0 * cell.std,
        "repetitions_ok": cell.ok_repetitions,
        "errors": list(cell.errors),
    }


def _render_json(table: ResultsTable) -> str:
    rows, n_columns = _rows(table), len(table.feature_sets)
    doc = {
        "repetitions": table.repetitions,
        "iou": table.iou,
        "columns": _column_names(table),
        # Keyed by eval set; a repeated eval set keeps its first position.
        "baseline": {eval_fs: _cell_json(cell) for _, _, eval_fs, cell in rows[:n_columns]},
        "cells": [
            {"method": label, "feature_set": fit_fs, "eval_feature_set": eval_fs, **_cell_json(cell)}
            for label, fit_fs, eval_fs, cell in rows[n_columns:]
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
