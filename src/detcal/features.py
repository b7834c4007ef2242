"""Calibration input vectors built from matched samples.

Readers take a record list or its :class:`SampleColumns` (:func:`columns`).
A feature set selects an ordered subset of (confidence, cx, cy, w, h) with
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
from .matching import MatchedSample, check_scores

MEMBER_NAMES = ("confidence", "cx", "cy", "w", "h")
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


@dataclass(frozen=True, eq=False)
class SampleColumns:
    """Read-only struct-of-arrays form of a sample list.

    ``values`` (n, 5) holds the members in :data:`MEMBER_NAMES` order and
    ``matched`` the int64 labels. ``values`` stays column-major because BLAS
    products round by layout and fitted model files must keep their bits.
    """

    values: np.ndarray
    matched: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.matched.setflags(write=False)

    def __len__(self) -> int:
        return len(self.matched)

    def take(self, idx: np.ndarray) -> SampleColumns:
        """The samples at ``idx``, in that order (gathered via the transpose to stay column-major)."""
        return SampleColumns(self.values.T[:, idx].T, self.matched[idx])

    def with_scores(self, scores) -> SampleColumns:
        """The same samples with ``scores`` as confidences; see :func:`check_scores`."""
        values = self.values.copy(order="F")
        values[:, 0] = check_scores(scores)
        return SampleColumns(values, self.matched)


def columns(samples: Sequence[MatchedSample] | SampleColumns) -> SampleColumns:
    """Read a sample list into columns once; columns are returned unchanged."""
    if isinstance(samples, SampleColumns):
        return samples
    n = len(samples)
    values = np.empty((n, len(MEMBER_NAMES)), order="F")
    values[:, 0] = np.fromiter((s.detection.score for s in samples), np.float64, n)
    for k, member in enumerate(MEMBER_NAMES[1:], start=1):
        values[:, k] = np.fromiter((getattr(s.detection.box, member) for s in samples), np.float64, n)
    return SampleColumns(values, np.fromiter((s.matched for s in samples), np.int64, n))


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
    values = np.clip(values, eps, 1.0 - eps)
    if fs.confidence_encoding == "logit":
        p = values[:, 0]
        values[:, 0] = np.log(p) - np.log1p(-p)
    return values


def build_features(sample: MatchedSample, fs: FeatureSet, eps: float = DEFAULT_CLIP) -> np.ndarray:
    """Feature vector (length K, in member order) for one sample; see :func:`build_feature_matrix`."""
    return build_feature_matrix([sample], fs, eps)[0]


def labels(samples: Sequence[MatchedSample] | SampleColumns) -> np.ndarray:
    """Binary match labels as a read-only integer vector, one entry per sample."""
    return columns(samples).matched
