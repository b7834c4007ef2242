"""Calibration error metrics over multidimensional equal-width binnings.

The detection expected calibration error (D-ECE) partitions the confidence
and each selected box dimension into equally spaced bins and averages the
absolute gap between per-bin precision and per-bin mean confidence, weighted
by bin occupancy. With the confidence as the only binned dimension and no
occupancy threshold this reduces to the classification expected calibration
error with precision standing in for accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DataError, DetcalError, DimensionalityError, EmptyMetricError, UsageError, ValidationError, check_count,
    check_names,
)
from .features import MEMBER_NAMES, SampleColumns, columns, labels, raw_values
from .matching import MatchedSample

DEFAULT_MIN_SAMPLES = 8
# Evaluation-side bins per dimension, keyed by dimensionality K.
DEFAULT_EVAL_BINS = {1: 20, 3: 8, 5: 5}


def check_grid(counts: tuple[int, ...], error: type[DetcalError]) -> None:
    """Raise ``error`` when the dense grid over ``counts`` has more cells than an int64 indexes."""
    cells = math.prod(counts)
    if cells > np.iinfo(np.int64).max:
        raise error(f"a grid of {counts} bins has {cells} cells, more than an int64 index can address")


def dense_counts(flat: np.ndarray, counts: tuple[int, ...], error: type[DetcalError], *weights):
    """Per-cell sample count, then the per-cell sum of each of ``weights``, over the dense grid ``counts``.

    A grid numpy refuses to allocate raises ``error`` naming the bin counts.
    """
    size = math.prod(counts)
    try:
        return [np.bincount(flat, minlength=size)] + [np.bincount(flat, weights=w, minlength=size) for w in weights]
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an address holds
        raise error(f"cannot allocate a dense grid of {counts} bins: {exc}") from None


@dataclass(frozen=True)
class BinningSpec:
    """Per-dimension equal-width bin counts plus a minimum bin occupancy."""

    dims: tuple[str, ...]
    counts: tuple[int, ...]
    min_samples: int = DEFAULT_MIN_SAMPLES

    def __post_init__(self):
        dims, counts = check_names("binning dimensions", self.dims, ValidationError), tuple(self.counts)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("binning needs at least one dimension")
        if len(set(dims)) != len(dims):
            raise ValidationError(f"duplicate binning dimensions in {dims}")
        unknown = [d for d in dims if d not in MEMBER_NAMES]
        if unknown:
            raise ValidationError(f"unknown binning dimensions {unknown}")
        if len(counts) != len(dims):
            raise ValidationError(
                f"{len(counts)} bin counts given for {len(dims)} dimensions"
            )
        below = f"bin counts must be >= 1, got {counts}"
        counts = tuple(check_count("bin counts", c, 1, ValidationError, message=below) for c in counts)
        object.__setattr__(self, "counts", counts)
        check_grid(counts, ValidationError)
        check_count("min_samples", self.min_samples, 0, ValidationError)

    @property
    def total_bins(self) -> int:
        return math.prod(self.counts)


def default_eval_spec(dims: Sequence[str], min_samples: int = DEFAULT_MIN_SAMPLES) -> BinningSpec:
    """Default evaluation binning for a feature subset: 20 / 8 / 5 bins per dim at K = 1 / 3 / 5."""
    dims = tuple(dims)
    k = len(dims)
    if k not in DEFAULT_EVAL_BINS:
        raise UsageError(f"no default evaluation bin count for K={k}; pass counts explicitly")
    return BinningSpec(dims=dims, counts=(DEFAULT_EVAL_BINS[k],) * k, min_samples=min_samples)


@dataclass(frozen=True)
class BinnedStats:
    """Occupancy, mean confidence, and precision for every retained bin."""

    multi_indices: np.ndarray  # (n_bins, K) int
    bin_counts: np.ndarray  # (n_bins,) int
    conf: np.ndarray  # (n_bins,) mean confidence
    prec: np.ndarray  # (n_bins,) fraction matched
    total_samples: int
    retained_samples: int
    dropped_bins: int


@dataclass(frozen=True)
class HeatmapGrid:
    """Calibration error marginalized onto two box/confidence dimensions.

    Arrays are indexed ``[axis1_bin, axis2_bin]``; cells without retained
    samples hold NaN statistics and a zero count.
    """

    axes: tuple[str, str]
    contrib: np.ndarray  # weighted mean |prec - conf| per cell
    count: np.ndarray  # retained samples per cell
    precision: np.ndarray
    confidence: np.ndarray
    retained_samples: int

    def rows(self) -> Iterator[tuple[int, int, float, int, float, float]]:
        """Yield occupied cells as (axis1_bin, axis2_bin, contrib, count, precision, confidence)."""
        for i, j in np.argwhere(self.count > 0).tolist():
            yield (
                i,
                j,
                float(self.contrib[i, j]),
                int(self.count[i, j]),
                float(self.precision[i, j]),
                float(self.confidence[i, j]),
            )


def bin_indices(values: np.ndarray, n_bins: int | Sequence[int]) -> np.ndarray:
    """Equal-width bin indices of values in [0, 1], 1.0 in the top bin; ``n_bins`` may hold one count per column.

    A value outside [0, 1], NaN included, raises :class:`UsageError`.
    """
    n_bins = np.asarray(n_bins, dtype=np.int64)
    if (n_bins < 1).any():
        raise UsageError(f"bin count must be >= 1, got {n_bins}")
    values = np.asarray(values, dtype=np.float64)
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise UsageError("binned values must be finite and lie in [0, 1]")
    return np.minimum((values * n_bins).astype(np.int64), n_bins - 1)


def _binned_sums(samples: Sequence[MatchedSample] | SampleColumns, spec: BinningSpec):
    """Flat-index occupancy, score sums and label sums over the full grid."""
    cols = columns(samples)
    idx = bin_indices(raw_values(cols, spec.dims), spec.counts)
    flat = np.ravel_multi_index(tuple(idx.T), spec.counts) if len(spec.dims) > 1 else idx[:, 0]
    return dense_counts(flat, spec.counts, ValidationError, cols.values[:, 0], labels(cols))


def binned_stats(samples: Sequence[MatchedSample] | SampleColumns, spec: BinningSpec) -> BinnedStats:
    """Per-bin statistics after dropping bins below the occupancy threshold."""
    if not samples:
        raise DataError("cannot bin an empty sample list")
    counts, conf_sums, m_sums = _binned_sums(samples, spec)
    occupied = counts > 0
    kept = occupied & (counts >= spec.min_samples)
    if not kept.any():
        occ = counts[occupied]
        hist = {int(c): int((occ == c).sum()) for c in np.unique(occ)}
        raise EmptyMetricError(
            f"all {int(occupied.sum())} occupied bins fall below min_samples="
            f"{spec.min_samples}; occupancy histogram {hist}",
            bin_histogram=hist,
        )
    kept_flat = np.flatnonzero(kept)
    multi = np.stack(np.unravel_index(kept_flat, spec.counts), axis=1)
    bin_counts = counts[kept_flat]
    return BinnedStats(
        multi_indices=multi,
        bin_counts=bin_counts,
        conf=conf_sums[kept_flat] / bin_counts,
        prec=m_sums[kept_flat] / bin_counts,
        total_samples=len(samples),
        retained_samples=int(bin_counts.sum()),
        dropped_bins=int(occupied.sum() - kept.sum()),
    )


def compute_d_ece(
    samples: Sequence[MatchedSample] | SampleColumns,
    spec: BinningSpec,
    *,
    renormalize: bool = True,
) -> tuple[float, BinnedStats]:
    """Detection expected calibration error over the binning's dimensions.

    Bins below ``spec.min_samples`` are dropped; by default the occupancy
    weights are renormalized over the retained samples (pass
    ``renormalize=False`` to keep the full sample count in the denominator).
    The confidence dimension always bins the probability-valued score, never
    a logit. Returns the error together with the retained-bin statistics.
    """
    if type(renormalize) is not bool:
        raise UsageError(f"renormalize must be True or False, got {renormalize!r}")
    stats = binned_stats(samples, spec)
    denom = stats.retained_samples if renormalize else stats.total_samples
    # Sequential accumulation in ascending bin order keeps the result
    # reproducible against a straightforward reference implementation.
    value = 0.0
    for count, conf, prec in zip(stats.bin_counts, stats.conf, stats.prec):
        value += (count / denom) * abs(prec - conf)
    return value, stats


def reliability_curve(
    samples: Sequence[MatchedSample] | SampleColumns,
    n_bins: int,
    *,
    min_samples: int = 0,
) -> list[tuple[float, float, int]]:
    """Per-confidence-bin (mean confidence, precision, count), ascending by bin, of the probability-valued score."""
    spec = BinningSpec(dims=("confidence",), counts=(n_bins,), min_samples=min_samples)
    stats = binned_stats(samples, spec)
    return [
        (float(c), float(p), int(n))
        for c, p, n in zip(stats.conf, stats.prec, stats.bin_counts)
    ]


def heatmap_axes(axes, spec: BinningSpec) -> tuple[str, str]:
    """``axes`` as a tuple, if it names two different dimensions of ``spec``; otherwise a :class:`UsageError`."""
    axes = tuple(axes)
    if len(axes) != 2 or axes[0] == axes[1]:
        raise UsageError(f"heatmap needs two different axes, got {axes!r}")
    for ax in axes:
        if ax not in spec.dims:
            raise UsageError(f"heatmap axis {ax!r} not among binning dimensions {spec.dims}")
    return axes


def heatmap(
    samples: Sequence[MatchedSample] | SampleColumns,
    spec: BinningSpec,
    axes: tuple[str, str],
) -> HeatmapGrid:
    """Marginalize the full-dimensional calibration error onto two dimensions.

    Each cell aggregates the |precision - confidence| gaps of all retained
    full-dimensional bins projecting onto it, weighted by bin occupancy, so
    the count-weighted mean over all cells reproduces the D-ECE over the
    retained samples.
    """
    axes = heatmap_axes(axes, spec)
    _, stats = compute_d_ece(samples, spec)
    ai, aj = spec.dims.index(axes[0]), spec.dims.index(axes[1])
    shape = (spec.counts[ai], spec.counts[aj])
    cell = np.ravel_multi_index((stats.multi_indices[:, ai], stats.multi_indices[:, aj]), shape)
    n = stats.bin_counts
    # bincount adds each cell's bins in ascending bin order, as a loop over the bins would.
    count, gap_sum, conf_sum, prec_sum = (
        np.bincount(cell, weights=w, minlength=math.prod(shape)).reshape(shape)
        for w in (n, n * np.abs(stats.prec - stats.conf), n * stats.conf, n * stats.prec)
    )
    count = count.astype(np.int64)  # exact: a float64 holds every integer sample count
    with np.errstate(invalid="ignore"):
        safe = np.where(count > 0, count, 1)
        contrib = np.where(count > 0, gap_sum / safe, np.nan)
        confidence = np.where(count > 0, conf_sum / safe, np.nan)
        precision = np.where(count > 0, prec_sum / safe, np.nan)
    return HeatmapGrid(
        axes=axes,
        contrib=contrib,
        count=count,
        precision=precision,
        confidence=confidence,
        retained_samples=stats.retained_samples,
    )


def require_dimensionality_match(
    fit_members: Sequence[str], eval_members: Sequence[str]
) -> None:
    """Refuse evaluation binnings that are lower-dimensional than the fitted map."""
    missing = [m for m in fit_members if m not in tuple(eval_members)]
    if missing:
        raise DimensionalityError(
            f"a map calibrated over {tuple(fit_members)} cannot be scored with a "
            f"binning over {tuple(eval_members)}: the evaluation must cover at "
            f"least the calibration dimensions (missing {missing})"
        )
