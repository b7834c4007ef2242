"""Greedy IoU assignment of detections to ground-truth objects.

Within each (image, category) group, detections are processed in descending
score order and each claims the still-unclaimed ground-truth box with the
highest IoU, provided that IoU reaches the threshold. The resulting binary
match label is the supervision signal for every calibration map and metric
in this package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .detections import (
    BoxGeometry,
    Detection,
    GroundTruthObject,
    _box_from_relative,
    _iter_jsonl,
    box_to_json,
)
from .errors import UsageError, ValidationError


@dataclass(frozen=True)
class MatchedSample:
    """A detection joined with its binary match label at some IoU threshold."""

    detection: Detection
    matched: int
    iou: float = 0.0
    gt_index: int | None = None

    def __post_init__(self):
        matched = int(self.matched)
        if matched not in (0, 1):
            raise ValidationError(f"match label must be 0 or 1, got {self.matched!r}")
        object.__setattr__(self, "matched", matched)
        if not 0.0 <= self.iou <= 1.0:
            raise ValidationError(f"iou must lie in [0, 1], got {self.iou}")
        if matched == 1 and self.gt_index is None:
            raise ValidationError("matched sample lacks a ground-truth index")
        if matched == 0 and self.gt_index is not None:
            raise ValidationError("unmatched sample carries a ground-truth index")
        if matched == 0 and self.iou != 0.0:
            raise ValidationError("unmatched sample must store iou = 0")


def iou(a: BoxGeometry, b: BoxGeometry) -> float:
    """Intersection over union of two relative-coordinate boxes."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # Areas derived from the same corner arithmetic as the intersection, so
    # identical boxes yield exactly 1.
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a + area_b - inter
    return inter / union


def match_detections(
    detections: Sequence[Detection],
    ground_truth: Sequence[GroundTruthObject],
    iou_threshold: float,
    *,
    exclude_crowd: bool = True,
) -> list[MatchedSample]:
    """Assign detections to ground truth greedily and label each as matched or not.

    Detections are grouped by (image_id, category_id); within a group they are
    visited in descending score order with ties broken by input order. Each
    claims the unclaimed ground-truth object of highest IoU at or above
    ``iou_threshold``; IoU ties go to the lowest ground-truth index. Output
    preserves input order, one sample per detection. ``gt_index`` values index
    into ``ground_truth`` as passed in.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise UsageError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")

    gt_groups: dict[tuple[Any, int], list[int]] = {}
    for j, gt in enumerate(ground_truth):
        if exclude_crowd and gt.crowd_flag:
            continue
        gt_groups.setdefault((gt.image_id, gt.category_id), []).append(j)

    # Stable sort on negative score keeps input order among equal scores.
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)
    claimed: set[int] = set()
    results: list[MatchedSample | None] = [None] * len(detections)
    for i in order:
        det = detections[i]
        best_iou = 0.0
        best_j: int | None = None
        for j in gt_groups.get((det.image_id, det.category_id), ()):
            if j in claimed:
                continue
            v = iou(det.box, ground_truth[j].box)
            if v >= iou_threshold and v > best_iou:
                best_iou, best_j = v, j
        if best_j is None:
            results[i] = MatchedSample(det, matched=0)
        else:
            claimed.add(best_j)
            results[i] = MatchedSample(det, matched=1, iou=best_iou, gt_index=best_j)
    return [r for r in results if r is not None]


def matched_sample_to_json(sample: MatchedSample) -> dict[str, Any]:
    det = sample.detection
    return {
        "image_id": det.image_id,
        "category_id": det.category_id,
        "score": det.score,
        "box": box_to_json(det.box),
        "matched": sample.matched,
        "iou": sample.iou,
        "gt_index": sample.gt_index,
    }


def check_scores(scores) -> np.ndarray:
    """``scores`` as floats, each checked like a :class:`Detection` score: not NaN, in [0, 1]."""
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
    if bad.size:
        raise ValidationError(f"score must lie in [0, 1], got {scores[bad[0]]} at index {bad[0]}")
    return scores


def write_matched_samples(samples: Iterable[MatchedSample], path: str | Path, *, scores=None) -> None:
    """Write matched samples as JSON Lines (the native detection schema plus labels).

    ``scores`` optionally replaces the score column: ``scores[i]`` is written
    as ``score`` and sample ``i``'s own score as ``raw_score``. The scores are
    checked with :func:`check_scores` before the file is opened.
    """
    if scores is not None:
        scores = check_scores(scores)
    with open(path, "w", encoding="utf-8") as fh:
        for i, sample in enumerate(samples):
            rec = matched_sample_to_json(sample)
            if scores is not None:
                rec["raw_score"], rec["score"] = rec["score"], float(scores[i])
            fh.write(json.dumps(rec))
            fh.write("\n")


def read_matched_samples(path: str | Path) -> list[MatchedSample]:
    """Read matched samples from a JSON Lines file, preserving order.

    Malformed lines raise :class:`ParseError` and invalid records
    :class:`ValidationError`, both with ``file:line`` context.
    """
    path = Path(path)
    samples: list[MatchedSample] = []
    for lineno, obj in _iter_jsonl(path):
        try:
            det = Detection(
                image_id=obj["image_id"],
                category_id=obj["category_id"],
                score=obj["score"],
                box=_box_from_relative(obj["box"]),
            )
            samples.append(
                MatchedSample(
                    detection=det,
                    matched=obj["matched"],
                    iou=obj.get("iou", 0.0),
                    gt_index=obj.get("gt_index"),
                )
            )
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: matched record missing field {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}:{lineno}: invalid matched record: {exc}") from exc
    return samples
