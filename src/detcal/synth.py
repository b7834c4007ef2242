"""Synthetic matched-sample generators with controllable miscalibration.

Each scenario draws boxes from a seeded sampler, assigns a true precision
via a field over the box geometry, emits a confidence via a second field,
and draws the binary match label from the precision. Because both fields
are explicit functions of position and scale, the generated datasets carry
known location- and scale-dependent miscalibration, which replaces detector
output for testing and for the evaluation protocol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .detections import BoxGeometry, valid_boxes
from .errors import ScenarioError, UsageError, check_count
from .matching import MEMBER_NAMES, SampleColumns

BoxSampler = Callable[[np.random.Generator, int], np.ndarray]
PrecisionField = Callable[[np.ndarray], np.ndarray]
ConfidenceField = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScenarioSpec:
    """A generative recipe: box sampler plus precision and confidence fields.

    Both fields are vectorized: they receive an ``(n, 4)`` array of
    ``(cx, cy, w, h)`` columns (the confidence field additionally receives
    the per-sample true precision) and must return valid probabilities.
    """

    name: str
    n_samples: int
    precision_field: PrecisionField
    confidence_field: ConfidenceField
    box_sampler: BoxSampler
    seed: int = 0

    def __post_init__(self):
        if check_count("sample count", self.n_samples, 1) > np.iinfo(np.intp).max:
            raise UsageError(f"sample count {self.n_samples} exceeds numpy's index range")
        check_count("seed", self.seed, 0, message=f"seed must be an integer >= 0, got {self.seed!r}")


_INTERIOR_SIZE_RANGE = (0.02, 0.2)


def interior_box_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
    """Centers uniform on [0.1, 0.9], sizes log-uniform on [0.02, 0.2].

    The ranges guarantee boxes never cross the image boundary, so box scale
    stays statistically independent of position; the built-in scenarios rely
    on that independence.
    """
    lo, hi = _INTERIOR_SIZE_RANGE
    cx = rng.uniform(0.1, 0.9, n)
    cy = rng.uniform(0.1, 0.9, n)
    w = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    h = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    return np.column_stack([cx, cy, w, h])


def _boundary_closeness(boxes: np.ndarray) -> np.ndarray:
    """0 at the image center, growing additively toward corners (max 0.8 interior)."""
    return np.abs(boxes[:, 0] - 0.5) + np.abs(boxes[:, 1] - 0.5)


def _scale_coordinate(boxes: np.ndarray) -> np.ndarray:
    """Log-area of the box normalized to [0, 1] over the interior sampler range."""
    lo, hi = _INTERIOR_SIZE_RANGE
    span = 2.0 * (math.log(hi) - math.log(lo))
    return (np.log(boxes[:, 2]) + np.log(boxes[:, 3]) - 2.0 * math.log(lo)) / span


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _size_score(boxes: np.ndarray) -> np.ndarray:
    """uniform_overconfident's confidence, rising linearly with the box's log-area."""
    return 0.25 + 0.70 * _scale_coordinate(boxes)


# Each built-in scenario's (precision field, confidence field); every one
# draws its boxes with :func:`interior_box_sampler`.
_SCENARIOS: dict[str, tuple[PrecisionField, ConfidenceField]] = {
    # Precision and confidence both fall toward the image boundary with
    # different slopes; the confidence spread within a location comes from
    # the (position-independent) box scale, so a confidence-only map cannot
    # resolve the location dependence.
    "fig3_boundary_decay": (
        lambda boxes: 0.80 - 0.50 * _boundary_closeness(boxes),
        lambda boxes, p: 0.92 - 0.20 * _boundary_closeness(boxes) - 0.25 * _scale_coordinate(boxes),
    ),
    "perfectly_calibrated": (
        lambda boxes: 0.90 - 0.45 * _boundary_closeness(boxes) - 0.20 * _scale_coordinate(boxes),
        lambda boxes, p: p.copy(),
    ),
    # The true precision is an exact Platt transform of the confidence, so a
    # one-dimensional logistic map can recalibrate this scenario completely.
    "uniform_overconfident": (
        lambda boxes: _sigmoid(_logit(_size_score(boxes)) - 1.0),
        lambda boxes, p: _size_score(boxes),
    ),
    "scale_dependent": (
        lambda boxes: 0.85 - 0.45 * _scale_coordinate(boxes),
        lambda boxes, p: 0.88 - 0.15 * _scale_coordinate(boxes) - 0.10 * _boundary_closeness(boxes),
    ),
}


def builtin_scenarios() -> dict[str, Callable[[int, int], ScenarioSpec]]:
    """Factories ``(n_samples, seed) -> ScenarioSpec`` for the named scenarios, keyed by name."""
    return {name: functools.partial(make_scenario, name) for name in _SCENARIOS}


def make_scenario(name: str, n_samples: int, seed: int = 0) -> ScenarioSpec:
    """Instantiate a named scenario; unknown names raise :class:`UsageError`."""
    try:
        precision, confidence = _SCENARIOS[name]
    except KeyError:
        raise UsageError(
            f"unknown scenario {name!r}; expected one of {sorted(_SCENARIOS)}"
        ) from None
    return ScenarioSpec(name, n_samples, precision, confidence, interior_box_sampler, seed)


def generate(spec: ScenarioSpec) -> SampleColumns:
    """Draw a matched-sample dataset from the scenario, deterministically per seed.

    Matched samples receive a synthetic ground-truth index and an IoU of 1;
    the samples use the matcher's output schema so downstream tooling cannot
    tell them from real matched detections. Sample ``i`` has image id ``i``
    and category 1.

    Boxes are checked once over the array with :func:`valid_boxes` and
    scores by :func:`_check_field`; a bad box raises the error of
    :class:`BoxGeometry` for the first such row. The sampler's arrays become
    the columns of the returned :class:`SampleColumns`, which reads as a
    sequence of :class:`~detcal.matching.MatchedSample` records. A draw
    numpy cannot allocate raises :class:`UsageError` naming the sample count.
    """
    try:
        rng = np.random.default_rng(spec.seed)
        boxes = np.asarray(spec.box_sampler(rng, spec.n_samples), dtype=np.float64)
        if boxes.shape != (spec.n_samples, 4):
            raise ScenarioError(
                f"box sampler returned shape {boxes.shape}, expected ({spec.n_samples}, 4)"
            )
        precision = np.asarray(spec.precision_field(boxes), dtype=np.float64)
        _check_field("precision", precision, spec.n_samples)
        confidence = np.asarray(spec.confidence_field(boxes, precision), dtype=np.float64)
        _check_field("confidence", confidence, spec.n_samples)
        matched = rng.random(spec.n_samples) < precision
        ok = valid_boxes(*boxes.T)
        if not ok.all():
            # The first row BoxGeometry rejects raises its own error.
            for row in boxes[~ok].tolist():
                BoxGeometry(*row)

        n = spec.n_samples
        values = np.empty((n, len(MEMBER_NAMES)), order="F")
        values[:, 0] = confidence
        values[:, 1:] = boxes
        return SampleColumns(
            values,
            matched.astype(np.int64),
            np.ones(n, np.int64),
            matched.astype(np.float64),
            np.where(matched, np.arange(n), -1),
            tuple(range(n)),
        )
    except MemoryError as exc:
        raise UsageError(f"cannot allocate a draw of {spec.n_samples} samples: {exc}") from None


def _check_field(name: str, values: np.ndarray, n: int) -> None:
    if values.shape != (n,):
        raise ScenarioError(f"{name} field returned shape {values.shape}, expected ({n},)")
    if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
        raise ScenarioError(
            f"{name} field left [0, 1]: range [{values.min()}, {values.max()}]"
        )
