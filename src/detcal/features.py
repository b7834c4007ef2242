"""Calibration input vectors built from matched samples.

Readers take a record list or its :class:`SampleColumns` (:func:`columns`),
both defined in :mod:`detcal.matching`, whose file reader returns the table,
and re-exported here. A feature set selects an ordered subset of (confidence, cx, cy, w, h) with
the confidence always first; its size K is the dimension of the calibration
map and of any matching calibration-error binning. Values are clipped away
from {0, 1} so log and odds terms stay finite, and the confidence can be
carried either as a probability or as its logit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError, ValidationError
from .matching import MEMBER_NAMES, MatchedSample, SampleColumns, columns

ENCODINGS = ("probability", "logit")
DEFAULT_CLIP = 1e-6

NAMED_FEATURE_SETS = {
    "conf": ("confidence",),
    "conf+xy": ("confidence", "cx", "cy"),
    "conf+wh": ("confidence", "w", "h"),
    "full": ("confidence", "cx", "cy", "w", "h"),
}


@dataclass(frozen=True)
class FeatureSet:
    """Ordered feature subset plus the encoding used for the confidence entry."""

    members: tuple[str, ...]
    confidence_encoding: str = "probability"

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members or members[0] != "confidence":
            raise ValidationError("feature set must start with 'confidence'")
        if len(set(members)) != len(members):
            raise ValidationError(f"duplicate feature members in {members}")
        unknown = [m for m in members if m not in MEMBER_NAMES]
        if unknown:
            raise ValidationError(f"unknown feature members {unknown}")
        if self.confidence_encoding not in ENCODINGS:
            raise ValidationError(f"unknown confidence encoding {self.confidence_encoding!r}")

    @property
    def k(self) -> int:
        return len(self.members)


def feature_set(name: str, confidence_encoding: str = "probability") -> FeatureSet:
    """Look up one of the named feature sets: conf, conf+xy, conf+wh, full."""
    try:
        members = NAMED_FEATURE_SETS[name]
    except KeyError:
        raise UsageError(
            f"unknown feature set {name!r}; expected one of {sorted(NAMED_FEATURE_SETS)}"
        ) from None
    return FeatureSet(members=members, confidence_encoding=confidence_encoding)


def _check_eps(eps: float) -> float:
    if not 0.0 < eps < 0.5:
        raise UsageError(f"clip value must lie in (0, 0.5), got {eps}")
    return float(eps)


def raw_values(samples: Sequence[MatchedSample] | SampleColumns, members: Sequence[str]) -> np.ndarray:
    """Unclipped per-sample values for the given members, shape (n, len(members))."""
    try:
        index = list(map(MEMBER_NAMES.index, members))
    except ValueError:
        raise UsageError(f"unknown feature member in {tuple(members)}") from None
    return columns(samples).values[:, index]


def build_feature_matrix(
    samples: Sequence[MatchedSample] | SampleColumns,
    fs: FeatureSet,
    eps: float = DEFAULT_CLIP,
) -> np.ndarray:
    """Clipped (and possibly logit-encoded) feature matrix of shape (n, K)."""
    eps = _check_eps(eps)
    values = raw_values(samples, fs.members)
    np.clip(values, eps, 1.0 - eps, out=values)  # raw_values returns a copy of the columns
    if fs.confidence_encoding == "logit":
        p = values[:, 0]
        values[:, 0] = np.log(p) - np.log1p(-p)
    return values


def labels(samples: Sequence[MatchedSample] | SampleColumns) -> np.ndarray:
    """Binary match labels as a read-only integer vector, one entry per sample."""
    return columns(samples).matched
