"""Greedy IoU matching, and the matched-sample table and its JSON Lines file.

Within each (image, category) group, detections are processed in descending
score order and each claims the still-unclaimed ground-truth box with the
highest IoU, provided that IoU reaches the threshold. The resulting binary
match label is the supervision signal for every calibration map and metric
in this package.

Matched samples live in :class:`SampleColumns`, one table of arrays that
reads as a sequence of :class:`MatchedSample` records, each built only when
read. :func:`match_detections` takes the loaders' detection and
ground-truth tables, computes the IoU of every candidate pair through
:func:`pair_iou`, a block of pairs per call, and returns the table;
:func:`columns` converts a record list once. :func:`read_matched_samples`
parses the file straight into that table, a chunk of lines per
``json.loads`` call, through the native detection reader's column checks
and those of :class:`MatchedSample`; a record they reject is built by the
checked constructors, which raise its ``file:line`` error. A re-read of
the same bytes loads the sidecar file of columns that the parse left.
:func:`write_matched_samples` writes the table back with one line
template. Both hold one chunk of lines at a time, never the whole file's
text or a full-length list per column.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import operator
import os
import tempfile
from dataclasses import dataclass, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .detections import (
    INT64_MAX,
    BoxGeometry,
    Detection,
    DetectionTable,
    GroundTruthObject,
    GroundTruthTable,
    RecordTable,
    _checked,
    _CHUNK_LINES,
    _count_lines,
    _detection_columns,
    _field,
    _get,
    _native_detection,
    _read_jsonl,
    _real,
    _RecordPolicy,
    _whole_number,
)
from .errors import UsageError, ValidationError

# Column order of SampleColumns.values.
MEMBER_NAMES = ("confidence", "cx", "cy", "w", "h")


@dataclass(frozen=True)
class MatchedSample:
    """A detection joined with its binary match label at some IoU threshold.

    A matched sample carries the index (an integer in ``[0, 2**63)``) of the
    ground-truth object it claimed; an unmatched one carries None and IoU 0.
    """

    detection: Detection
    matched: int
    iou: float = 0.0
    gt_index: int | None = None

    def __post_init__(self):
        matched = _whole_number(self.matched)
        if matched not in (0, 1):
            raise ValidationError(f"match label must be 0 or 1, got {self.matched!r}")
        object.__setattr__(self, "matched", matched)
        if not 0.0 <= _real(self.iou, "iou") <= 1.0:
            raise ValidationError(f"iou must lie in [0, 1], got {self.iou}")
        if matched == 1 and self.gt_index is None:
            raise ValidationError("matched sample lacks a ground-truth index")
        if matched == 0 and self.gt_index is not None:
            raise ValidationError("unmatched sample carries a ground-truth index")
        if matched == 0 and self.iou != 0.0:
            raise ValidationError("unmatched sample must store iou = 0")
        if matched == 1:
            _gt_index(self.gt_index)


def _gt_index(value: Any) -> int:
    """A ground-truth index: an integer, not a bool, in ``[0, 2**63)``."""
    try:
        valid = not isinstance(value, bool) and 0 <= operator.index(value) <= INT64_MAX
    except TypeError:
        valid = False
    if not valid:
        raise ValidationError(f"ground-truth index must be an integer in [0, 2**63), got {value!r}")
    return operator.index(value)


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


def pair_iou(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> np.ndarray:
    """:func:`iou` of box pairs: ``a`` and ``b`` are ``(cx, cy, w, h)`` columns of equal length.

    The same float operations in the same order, so each value equals
    :func:`iou` of the pair bit for bit (which of two equal zeros a
    ``min`` or ``max`` picks cannot reach the result).
    """
    (acx, acy, aw, ah), (bcx, bcy, bw, bh) = a, b
    ax1, ay1, ax2, ay2 = acx - 0.5 * aw, acy - 0.5 * ah, acx + 0.5 * aw, acy + 0.5 * ah
    bx1, by1, bx2, by2 = bcx - 0.5 * bw, bcy - 0.5 * bh, bcx + 0.5 * bw, bcy + 0.5 * bh
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((iw <= 0.0) | (ih <= 0.0), 0.0, inter / union)


# Candidate pairs per pair_iou call in match_detections.
_PAIR_BLOCK = 4096


def match_detections(
    detections: Sequence[Detection],
    ground_truth: Sequence[GroundTruthObject],
    iou_threshold: float,
    *,
    exclude_crowd: bool = True,
) -> SampleColumns:
    """Assign detections to ground truth greedily and label each as matched or not.

    Detections are grouped by (image_id, category_id); within a group they are
    visited in descending score order with ties broken by input order. Each
    claims the unclaimed ground-truth object of highest IoU at or above
    ``iou_threshold``; IoU ties go to the lowest ground-truth index. Output
    preserves input order, one sample per detection. ``gt_index`` values index
    into ``ground_truth`` as passed in.

    Works on a :class:`~detcal.detections.DetectionTable` and a
    :class:`~detcal.detections.GroundTruthTable`; record lists are converted
    once. The IoU of every candidate pair is computed by :func:`pair_iou`,
    :data:`_PAIR_BLOCK` pairs per call, and the claim loop visits only the
    pairs at or above the threshold.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise UsageError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    dets = DetectionTable.from_records(detections)
    gts = GroundTruthTable.from_records(ground_truth)
    n = len(dets)

    # Eligible ground truth by (image_id, category_id), ascending index; a
    # dict, so that ids compare as dict keys do.
    eligible = np.flatnonzero(~gts.crowd) if exclude_crowd else np.arange(len(gts))
    groups: dict[tuple[Any, int], list[int]] = {}
    category = gts.category_id.tolist()
    for j in eligible.tolist():
        groups.setdefault((gts.image_id[j], category[j]), []).append(j)
    candidates = list(map(groups.get, zip(dets.image_id, dets.category_id.tolist()), repeat(())))
    count = np.fromiter(map(len, candidates), np.intp, n)
    pair_det = np.repeat(np.arange(n), count)
    pair_gt = np.fromiter(chain.from_iterable(candidates), np.intp, len(pair_det))
    # A block at a time, so that pair_iou's temporaries stay small however many pairs there are.
    pair_v = np.empty(len(pair_det))
    for start in range(0, len(pair_det), _PAIR_BLOCK):
        rows = slice(start, start + _PAIR_BLOCK)
        pair_v[rows] = pair_iou(
            tuple(c[pair_det[rows]] for c in (dets.cx, dets.cy, dets.w, dets.h)),
            tuple(c[pair_gt[rows]] for c in (gts.cx, gts.cy, gts.w, gts.h)),
        )
    feasible = pair_v >= iou_threshold
    pair_gt, pair_v = pair_gt[feasible].tolist(), pair_v[feasible].tolist()
    # Detection i's feasible pairs are first[i]:first[i + 1].
    first = np.searchsorted(pair_det[feasible], np.arange(n + 1)).tolist()

    # Stable sort on negative score keeps input order among equal scores.
    order = np.argsort(-dets.score, kind="stable").tolist()
    claimed: set[int] = set()
    matched = np.zeros(n, np.int64)
    ious = np.zeros(n)
    gt_index = np.full(n, -1, np.int64)
    for i in order:
        best_iou, best_j = 0.0, -1
        for k in range(first[i], first[i + 1]):
            if pair_v[k] > best_iou and pair_gt[k] not in claimed:
                best_iou, best_j = pair_v[k], pair_gt[k]
        if best_j >= 0:
            claimed.add(best_j)
            matched[i], ious[i], gt_index[i] = 1, best_iou, best_j
    values = np.empty((n, len(MEMBER_NAMES)), order="F")
    for k, column in enumerate((dets.score, dets.cx, dets.cy, dets.w, dets.h)):
        values[:, k] = column
    return SampleColumns(values, matched, dets.category_id, ious, gt_index, dets.image_id)


# ---------------------------------------------------------------------------
# The sample table


@dataclass(frozen=True, eq=False)
class SampleColumns(RecordTable):
    """Read-only table of matched samples, one entry per sample in every field.

    ``values`` (n, 5) holds confidence, cx, cy, w, h in that order.
    ``matched`` and ``category_id`` are int64, ``iou`` float64, ``gt_index``
    int64 with -1 for an unmatched sample, and ``image_id`` a tuple of the
    original str or int ids. It reads as a sequence of :class:`MatchedSample`
    records (see :class:`~detcal.detections.RecordTable`).
    """

    values: np.ndarray
    matched: np.ndarray
    category_id: np.ndarray
    iou: np.ndarray
    gt_index: np.ndarray
    image_id: tuple

    def _build(self, rows: slice) -> list[MatchedSample]:
        score, *box = self.values[rows].T.tolist()
        boxes = map(BoxGeometry, *box)
        dets = map(Detection, self.image_id[rows], self.category_id[rows].tolist(), score, boxes)
        gt_index = [None if j < 0 else j for j in self.gt_index[rows].tolist()]
        return list(map(MatchedSample, dets, self.matched[rows].tolist(), self.iou[rows].tolist(), gt_index))

    def with_scores(self, scores) -> SampleColumns:
        """The same samples with ``scores`` as confidences; see :func:`check_scores`."""
        values = self.values.copy(order="F")
        values[:, 0] = check_scores(scores)
        return replace(self, values=values)


def columns(samples: Sequence[MatchedSample] | SampleColumns) -> SampleColumns:
    """Read a sample list into columns once; columns are returned unchanged."""
    if isinstance(samples, SampleColumns):
        return samples
    n = len(samples)
    values = np.empty((n, len(MEMBER_NAMES)), order="F")
    values[:, 0] = np.fromiter((s.detection.score for s in samples), np.float64, n)
    for k, member in enumerate(MEMBER_NAMES[1:], start=1):
        values[:, k] = np.fromiter((getattr(s.detection.box, member) for s in samples), np.float64, n)
    return SampleColumns(
        values,
        np.fromiter((s.matched for s in samples), np.int64, n),
        np.fromiter((s.detection.category_id for s in samples), np.int64, n),
        np.fromiter((s.iou for s in samples), np.float64, n),
        np.fromiter((-1 if s.gt_index is None else s.gt_index for s in samples), np.int64, n),
        tuple(s.detection.image_id for s in samples),
    )


def check_scores(scores) -> np.ndarray:
    """``scores`` as floats, each checked like a :class:`Detection` score: not NaN, in [0, 1]."""
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
    if bad.size:
        raise ValidationError(f"score must lie in [0, 1], got {scores[bad[0]]} at index {bad[0]}")
    return scores


# ---------------------------------------------------------------------------
# JSON Lines file

# One record per line, byte for byte what ``json.dumps`` wrote for the record
# dict: ``%r`` of a Python float is ``float.__repr__``, as in ``json``.
_LINE = (
    '{"image_id": %s, "category_id": %d, "score": %r, "box": {"cx": %r, "cy": %r, '
    '"w": %r, "h": %r}, "matched": %d, "iou": %r, "gt_index": %s'
)


def write_matched_samples(
    samples: Sequence[MatchedSample] | SampleColumns, path: str | Path, *, scores=None
) -> None:
    """Write matched samples as JSON Lines (the native detection schema plus labels).

    ``scores`` optionally replaces the score column: ``scores[i]`` is written
    as ``score`` and sample ``i``'s own score as ``raw_score``. The scores are
    checked with :func:`check_scores` before the file is opened, as are the
    table's values, which must be finite. Lines are formatted and written
    :data:`~detcal.detections._CHUNK_LINES` rows at a time from the columns,
    so no column is held as a full-length list.
    """
    cols = columns(samples)
    if not (np.isfinite(cols.values).all() and np.isfinite(cols.iou).all()):
        raise ValidationError("matched samples hold non-finite values")
    template = _LINE + "}\n"
    if scores is not None:
        scores = check_scores(scores)
        if scores.shape != (len(cols),):
            raise UsageError(f"{scores.size} scores given for {len(cols)} samples")
        template = _LINE + ', "raw_score": %r}\n'
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(cols), _CHUNK_LINES):
            rows = slice(start, start + _CHUNK_LINES)
            score, *box = cols.values[rows].T.tolist()
            raw = ()
            if scores is not None:
                score, raw = scores[rows].tolist(), (score,)
            fh.writelines(map(template.__mod__, zip(
                [i if type(i) is int else json.dumps(i) for i in cols.image_id[rows]],
                cols.category_id[rows].tolist(),
                score,
                *box,
                cols.matched[rows].tolist(),
                cols.iou[rows].tolist(),
                ["null" if g < 0 else g for g in cols.gt_index[rows].tolist()],
                *raw,
            )))


def read_matched_samples(path: str | Path) -> SampleColumns:
    """Read matched samples from a JSON Lines file into columns, preserving order.

    Malformed lines raise :class:`ParseError` and invalid records
    :class:`ValidationError`, both with ``file:line`` context. A regular file
    read in full leaves its columns in a sidecar (:func:`_store_columns`),
    which later reads of the same bytes by the same reader load instead.
    """
    path, size, key = Path(path), 0, None
    if path.is_file():
        sidecar = path.with_name(f".{path.name}.detcal-columns")
        stat, digest = path.stat(), hashlib.blake2b(key=_source_key())
        size, key = _count_lines(path, digest), digest.digest()
        if (table := _load_columns(sidecar, key, size)) is not None:
            return table
    image_id, category_id, members, matched, iou_, gt_index = _read_jsonl(
        path, _RecordPolicy("fail"), "matched", _matched_sample, _sample_columns, size=size
    )
    # The transpose of the stacked members is their Fortran-ordered table.
    table = SampleColumns(members.T, matched, category_id, iou_, gt_index, image_id)
    if key is not None:
        _store_columns(path, sidecar, key, stat, table)
    return table


# A sidecar is this magic, the 64-byte key, the row count n (8 bytes, little-endian) and a 32-byte
# digest of the payload, then the payload: the (5, n) members, matched, category_id, iou and gt_index
# as raw arrays, and the image ids as one JSON array.
_MAGIC = f"detcal-columns 1 {np.dtype(float).str}\n".encode()


@functools.cache
def _source_key() -> bytes:
    """A digest of ``detections.py`` and ``matching.py``, or if unreadable, random bytes no other process shares."""
    try:
        return hashlib.blake2b(b"".join(Path(__file__).with_name(name).read_bytes()
                                        for name in ("detections.py", "matching.py"))).digest()
    except OSError:
        return os.urandom(64)


def _load_columns(sidecar: Path, key: bytes, lines: int) -> SampleColumns | None:
    """The table in ``sidecar`` if it is stored under ``key`` and whole, else None; never raises. Its arrays,
    of at most ``lines`` rows, are filled in place; a short read cannot match the payload's digest."""
    try:
        with open(sidecar, "rb") as fh:
            head, check = fh.read(len(_MAGIC) + 64 + 8 + 32), hashlib.blake2b(digest_size=32)
            n = int.from_bytes(head[-40:-32], "little")
            if head[:-40] != _MAGIC + key or n > lines:
                return None
            cols = [np.empty((len(MEMBER_NAMES), n)), *(np.empty(n, t) for t in ("i8", "i8", "f8", "i8"))]
            for column in cols:
                fh.readinto(column)
                check.update(column)
            check.update(ids := fh.read())
        return SampleColumns(cols[0].T, *cols[1:], tuple(json.loads(ids))) if check.digest() == head[-32:] else None
    except (OSError, ValueError):
        return None


def _store_columns(path: Path, sidecar: Path, key: bytes, stat: os.stat_result, table: SampleColumns) -> None:
    """Write ``table`` to ``sidecar`` under ``key`` through a temporary file, unless ``path``'s size or
    mtime differ from ``stat``; any OSError skips it. The image ids are encoded a chunk at a time."""
    with contextlib.suppress(OSError):
        if (now := path.stat()).st_size != stat.st_size or now.st_mtime_ns != stat.st_mtime_ns:
            return
        ids, digest, step = table.image_id, hashlib.blake2b(digest_size=32), _CHUNK_LINES
        # json.dumps(ids) in pieces: each chunk's values, all but the first after ", ", within "[" and "]".
        pieces = ((", " * (i > 0) + json.dumps(ids[i:i + step])[1:-1]).encode() for i in range(0, len(ids), step))
        fd, tmp = tempfile.mkstemp(dir=sidecar.parent, prefix=sidecar.name)
        try:
            with open(fd, "wb") as fh:
                fh.write(_MAGIC + key + len(table).to_bytes(8, "little") + bytes(32))
                arrays = [table.values.T, table.matched, table.category_id, table.iou, table.gt_index]
                for part in chain(arrays, [b"["], pieces, [b"]"]):
                    fh.write(part)
                    digest.update(part)
                fh.seek(len(_MAGIC) + 64 + 8)
                fh.write(digest.digest())
            os.replace(tmp, sidecar)
        except OSError:
            os.remove(tmp)


def _matched_sample(obj: dict) -> MatchedSample:
    """The record of a matched-sample line, built by the checked constructors."""
    return MatchedSample(_native_detection(obj), obj["matched"], obj.get("iou", 0.0), obj.get("gt_index"))


def _sample_columns(objs: list) -> list:
    """``[ok, image_id, category_id, members, matched, iou, gt_index]`` of matched-sample records.

    :func:`~detcal.detections._detection_columns` with its confidence and box
    stacked as ``members`` (5, n) in :data:`MEMBER_NAMES` order, and the checks
    of :class:`MatchedSample`; ``gt_index`` is -1 for None.
    """
    ok, image_id, category_id, cx, cy, w, h, score = _detection_columns(objs)
    # A match label is a whole number 0 or 1: an int or a float equal to either.
    label = _field(objs, "matched", ok)
    hit = label == 1.0
    ok &= hit | (label == 0.0)
    matched = hit.astype(np.int64)
    iou_ = _field(objs, "iou", ok, default=0.0)
    gts = _get(objs, "gt_index", None)
    null = np.fromiter(map(operator.is_, gts, repeat(None)), bool, len(gts))
    typed = set(map(type, gts)) <= {int, type(None)}
    gt_index = _checked([0 if g is None else g for g in gts], typed, _gt_index, ok, np.int64)
    ok &= (iou_ >= 0.0) & (iou_ <= 1.0) & (hit | (iou_ == 0.0))
    ok &= np.where(hit, ~null & (gt_index >= 0), null)
    gt_index[null] = -1
    return [ok, image_id, category_id, np.array((score, cx, cy, w, h)), matched, iou_, gt_index]
