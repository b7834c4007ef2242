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
``json.loads`` call, through the array checks of :func:`_sample_checks`
(those of the native detection reader and of :class:`MatchedSample`); a
record they reject is built by the checked constructors, which raise its
``file:line`` error. A re-read of the same bytes loads the sidecar file of
columns that the parse left. :func:`write_matched_samples` writes the
table back with one line template, and leaves the sidecar that a parse of
its file would store: it digests the bytes it writes and runs the same
checks on the columns it writes them from. Given new scores for a table
loaded from the sidecar of a file it wrote itself, it copies that file's
lines, swapping in each new score (:func:`_spliced`). Both hold one chunk
of lines at a time, never the whole file's text or a full-length list per
column.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import operator
import os
import re
import stat as stat_mode
import sys
import tempfile
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat
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
    _detection_checks,
    _field,
    _get,
    _native_detection,
    _object_columns,
    _read_jsonl,
    _real,
    _RecordPolicy,
    _whole_number,
)
from .errors import UsageError, ValidationError, check_real

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
    if not 0.0 < check_real("iou_threshold", iou_threshold) <= 1.0:
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
    # (path, key): the matched-sample file whose flagged sidecar this table was loaded from, and the
    # sidecar's key (see read_matched_samples); not a field, so a derived table carries none.
    _source = None

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
    """``scores`` as a 1-D float array, each checked like a :class:`Detection` score: a real number, not a
    bool or a str, and in [0, 1], so not NaN. A bad entry raises :class:`ValidationError` naming its index,
    and scores that are not 1-D raise :class:`UsageError` naming their shape."""
    try:
        array = np.asarray(scores)
    except ValueError:  # entries nested unevenly
        raise UsageError(f"scores must be one-dimensional, got a ragged shape ({len(scores)}, ...)") from None
    if array.ndim != 1:
        raise UsageError(f"scores must be one-dimensional, got shape {array.shape}")
    # Bools and numeric strs in a list would convert silently; only an array of numbers is taken whole.
    if not isinstance(scores, np.ndarray) or array.dtype.kind not in "iuf":
        for i, score in enumerate(scores):
            check_real(f"score at index {i}", score, ValidationError)
    scores = array.astype(np.float64, copy=False)
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


# Lines formatted, written and digested at a time by write_matched_samples: about 60 kB of text, below
# the 128 kB from which glibc's malloc maps a block of its own. Freeing a mapped block raises that
# threshold, after which blocks that size come from the heap, which a series of writes then grows.
_WRITE_LINES = 256

# An output line of _spliced, from the pieces of the line _LINE wrote for a sample: the text before the
# score, the new score, the box and label fields, and the old score's text. It is _LINE + ', "raw_score": %r}\n'.
_SPLICE = b'%s"score": %a, "box": %s, "raw_score": %s}\n'
# The score and the rest of such a line; a literal start lets the regex engine skip ahead to each match.
_SCORE = re.compile(rb'"score": ([^,]*), "box": ([^\n]*)\}\n')


def write_matched_samples(
    samples: Sequence[MatchedSample] | SampleColumns, path: str | Path, *, scores=None
) -> None:
    """Write matched samples as JSON Lines (the native detection schema plus labels).

    ``scores`` optionally replaces the score column: ``scores[i]`` is written
    as ``score`` and sample ``i``'s own score as ``raw_score``. The scores are
    checked with :func:`check_scores` before the file is opened, as are the
    table's values, which must be finite, and its image ids, whose ints must
    be short enough to convert to text. Lines are formatted and written
    :data:`_WRITE_LINES` rows at a time from the columns, so no column is
    held as a full-length list.

    The file is left with the sidecar that its first read would store: the
    bytes feed the reader's digest as they are written, and each
    :data:`~detcal.detections._CHUNK_LINES` rows go through the reader's
    checks (:func:`_sample_checks`). Nothing is stored when the reader would
    reject a row or change a value (clamp a box, or read an index below -1
    as -1), which only a hand-built table holds, when an image id is not
    exactly an int or a str, a column is not of its documented dtype and
    length, or ``path`` does not name a regular file (a symlink, a pipe or a
    device). A sidecar of a file written without ``scores`` is flagged as
    holding this writer's own lines.

    With ``scores``, the lines of a table loaded from a flagged sidecar are
    copied from its file with the new scores spliced in (:func:`_copy_source`
    says when), which gives the same bytes at a fraction of the formatting
    cost. A source that no longer holds the lines its sidecar was stored for
    is found by the end of the copy, and the file is then written again from
    the columns.
    """
    path, cols = Path(path), columns(samples)
    if not (np.isfinite(cols.values).all() and np.isfinite(cols.iou).all()):
        raise ValidationError("matched samples hold non-finite values")
    kinds = set(map(type, cols.image_id))
    _check_image_ids(cols.image_id, kinds)
    template, score = _LINE + "}\n", cols.values[:, 0]
    if scores is not None:
        score = check_scores(scores)
        if score.shape != (len(cols),):
            raise UsageError(f"{score.size} scores given for {len(cols)} samples")
        template = _LINE + ', "raw_score": %r}\n'
    # The sidecar's arrays, which the reader's must equal.
    arrays = [score, *cols.values.T[1:], cols.matched, cols.category_id, cols.iou, cols.gt_index]

    def formatted():
        for first in range(0, len(cols), _WRITE_LINES):
            rows = slice(first, first + _WRITE_LINES)
            own, *box = cols.values[rows].T.tolist()
            yield first, "".join(map(template.__mod__, zip(
                [i if type(i) is int else json.dumps(i) for i in cols.image_id[rows]],
                cols.category_id[rows].tolist(),
                own if scores is None else score[rows].tolist(),
                *box,
                cols.matched[rows].tolist(),
                cols.iou[rows].tolist(),
                ["null" if g < 0 else g for g in cols.gt_index[rows].tolist()],
                *(() if scores is None else (own,)),
            ))).encode()

    def write(blocks) -> tuple:
        """Write the ``(first row, bytes)`` of ``blocks`` to ``fh``: ``(digest, store)``."""
        digest, store = _key_digest(), _storable(cols, kinds)
        for first, text in blocks:
            if store and first % _CHUNK_LINES == 0:
                confidence, *box, matched, _, iou_, gt = (a[first:first + _CHUNK_LINES] for a in arrays)
                ok = np.ones(len(gt), bool)
                members, _ = _sample_checks(ok, confidence, box, matched, iou_, gt, gt < 0)
                # An accepted label is 0 or 1 already; the reader stores an index below 0 as -1.
                store = (bool(ok.all()) and not (gt < -1).any()
                         and np.array_equal(members[1:].view(np.int64), np.array(box).view(np.int64)))
            fh.write(text)
            digest.update(text)
        return digest, store

    source = _copy_source(cols, path) if scores is not None else None
    with open(path, "wb") as fh:
        try:
            digest, store = write(formatted() if source is None else _spliced(*source, score))
        except _SourceChanged:
            fh.seek(0)
            fh.truncate()
            digest, store = write(formatted())
    if store and (stat := _regular(path)) is not None:
        _store_columns(path, digest.digest(), stat, cols, arrays, scores is None)


def _check_image_ids(ids: tuple, kinds: set) -> None:
    """Raise :class:`ValidationError`, naming the first, if an int image id has more digits than the
    interpreter converts to text (``sys.get_int_max_str_digits``); ``kinds`` is the set of the ids' types."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit or kinds <= {str}:
        return
    bound = 10**limit
    if kinds == {int} and -bound < min(ids) and max(ids) < bound:
        return
    for row, i in enumerate(ids):
        if isinstance(i, int) and not -bound < i < bound:
            raise ValidationError(f"image_id of sample {row} has more than {limit} digits")


class _SourceChanged(Exception):
    """The file :func:`_spliced` copies no longer holds the lines its sidecar was stored for."""


def _copy_source(cols: SampleColumns, path: Path) -> tuple[Path, bytes] | None:
    """The file ``cols`` was loaded from and its sidecar's key, when writing ``cols`` with new scores to
    ``path`` may copy that file's lines (:func:`_spliced`), else None.

    Only a table loaded from a flagged sidecar records the pair; its arrays
    are read-only views of that sidecar's bytes. ``path`` must name a new
    path or a regular file other than the source.
    """
    if cols._source is None or (src := _regular(cols._source[0])) is None:
        return None
    try:
        out = os.lstat(path)
    except FileNotFoundError:
        return cols._source
    except OSError:
        return None
    return cols._source if stat_mode.S_ISREG(out.st_mode) and not os.path.samestat(src, out) else None


def _spliced(source: Path, key: bytes, score: np.ndarray):
    """The ``(first row, bytes)`` of each :data:`_WRITE_LINES` output rows of :func:`write_matched_samples`
    with ``score``, copied from the lines it wrote to ``source`` without scores; one float repr a row.

    Each such line is ``{"image_id": ..., "score": OLD, "box": REST}`` and a
    newline, where no value holds ``"score": `` (a string id escapes its
    quotes) or a newline, and the float OLD holds no comma, so
    :data:`_SCORE` splits it into the text before the score, OLD and REST.
    Raises :class:`_SourceChanged` when the file cannot be read, its lines
    do not split so, or, once read, their bytes do not digest to ``key``.
    """
    digest = _key_digest()
    try:
        with open(source, "rb") as fh:
            for first in range(0, len(score), _WRITE_LINES):
                new = score[first:first + _WRITE_LINES].tolist()
                text = b"".join(islice(fh, len(new)))
                digest.update(text)
                pieces = _SCORE.split(text)
                if len(pieces) != 3 * len(new) + 1 or pieces[-1]:
                    raise _SourceChanged
                yield first, b"".join(map(_SPLICE.__mod__, zip(pieces[0:-1:3], new, pieces[2::3], pieces[1::3])))
    except OSError:
        raise _SourceChanged from None
    if digest.digest() != key:
        raise _SourceChanged


def _storable(cols: SampleColumns, kinds: set) -> bool:
    """Whether a read of the written file returns ``cols``' own ids and dtypes, up to the checks: float64
    ``values`` (n, 5) and ``iou``, int64 ``matched``, ``category_id`` and ``gt_index``, and ids each exactly a
    str or an int (``kinds`` is the set of their types)."""
    n, f8, i8 = len(cols), np.dtype(np.float64), np.dtype(np.int64)
    shapes = [(cols.values, (n, len(MEMBER_NAMES)), f8), (cols.iou, (n,), f8), (cols.matched, (n,), i8),
              (cols.category_id, (n,), i8), (cols.gt_index, (n,), i8)]
    return (all(c.shape == shape and c.dtype == dtype for c, shape, dtype in shapes)
            and kinds <= {int, str})


def read_matched_samples(path: str | Path) -> SampleColumns:
    """Read matched samples from a JSON Lines file into columns, preserving order.

    Malformed lines raise :class:`ParseError` and invalid records
    :class:`ValidationError`, both with ``file:line`` context. A regular file
    read in full leaves its columns in a sidecar (:func:`_store_columns`),
    which later reads of the same bytes by the same reader load instead;
    the path itself must name the file, so nothing is stored beside a
    symlink or a device such as ``/dev/stdin``.
    """
    path, size, key = Path(path), None, None
    if (stat := _regular(path)) is not None:
        digest = _key_digest()
        size, key = _count_lines(path, digest), digest.digest()
        if (loaded := _load_columns(_sidecar(path), key, size)) is not None:
            table, own_lines = loaded
            if own_lines:
                object.__setattr__(table, "_source", (path, key))
            return table
    image_id, category_id, members, matched, iou_, gt_index = _read_jsonl(
        path, _RecordPolicy("fail"), "matched", _matched_sample, _sample_columns, size=size
    )
    # The transpose of the stacked members is their Fortran-ordered table.
    table = SampleColumns(members.T, matched, category_id, iou_, gt_index, image_id)
    if key is not None:
        _store_columns(path, key, stat, table)
    return table


# A sidecar is this magic, the 32-byte key, the row count n (8 bytes, little-endian) and a 32-byte digest
# of the body, then the body: a flag byte, 1 when write_matched_samples wrote the file's lines from the
# payload without scores (else 0), and the payload: the (5, n) members, matched, category_id, iou and
# gt_index as raw arrays, and the image ids as one JSON array. _KEY, _ROWS and _DIGEST are the offsets
# of the key, the row count and the body digest. Both digests are SHA-256, the key of _source_key() and
# the file's bytes.
_MAGIC = f"detcal-columns 3 {np.dtype(float).str}\n".encode()
_KEY, _ROWS, _DIGEST = len(_MAGIC), len(_MAGIC) + 32, len(_MAGIC) + 40
_HEAD = _DIGEST + 32
# Every digest is a copy of this one: building a SHA-256 object at each use raised the heap high-water.
_SHA256 = hashlib.sha256()


def _sidecar(path: Path) -> Path:
    """The sidecar of the matched-sample file at ``path``: a hidden file beside it."""
    return path.with_name(f".{path.name}.detcal-columns")


def _regular(path: Path) -> os.stat_result | None:
    """The status of ``path`` itself, symlinks not followed, when it names a regular file; else None."""
    try:
        stat = os.lstat(path)
    except OSError:
        return None
    return stat if stat_mode.S_ISREG(stat.st_mode) else None


@functools.cache
def _source_key() -> bytes:
    """A digest of ``detections.py`` and ``matching.py``, or if unreadable, random bytes no other process shares."""
    digest = _SHA256.copy()
    try:
        digest.update(b"".join(Path(__file__).with_name(name).read_bytes()
                               for name in ("detections.py", "matching.py")))
    except OSError:
        return os.urandom(32)
    return digest.digest()


def _key_digest():
    """A digest to feed a matched-sample file's bytes to, for the key of its sidecar: SHA-256 of
    :func:`_source_key` and those bytes."""
    digest = _SHA256.copy()
    digest.update(_source_key())
    return digest


def _load_columns(sidecar: Path, key: bytes, lines: int) -> tuple[SampleColumns, bool] | None:
    """The table in ``sidecar`` and its flag, if it is stored under ``key`` and whole, else None; never raises.

    The table's arrays, of at most ``lines`` rows, are read-only views of
    the bytes read, which cannot be made writeable. A short header or body
    cannot match the key or the body's digest.
    """
    try:
        with open(sidecar, "rb") as fh:
            head = fh.read(_HEAD)
            n = int.from_bytes(head[_ROWS:_DIGEST], "little")
            if not head.startswith(_MAGIC) or head[_KEY:_ROWS] != key or n > lines:
                return None
            body = [fh.read(1), *(fh.read(8 * size) for size in (len(MEMBER_NAMES) * n, n, n, n, n)), fh.read()]
        check = _SHA256.copy()
        for part in body:
            check.update(part)
        if check.digest() != head[_DIGEST:]:
            return None
        members, *cols = map(np.frombuffer, body[1:-1], ("f8", "i8", "i8", "f8", "i8"))
        table = SampleColumns(members.reshape(len(MEMBER_NAMES), n).T, *cols, tuple(json.loads(body[-1])))
        return table, body[0] == b"\x01"
    except (OSError, ValueError):
        return None


def _store_columns(path: Path, key: bytes, stat: os.stat_result, table: SampleColumns,
                   arrays=None, own_lines: bool = False) -> None:
    """Write ``table`` to ``path``'s sidecar under ``key`` through a temporary file, unless ``path``'s size
    or mtime differ from ``stat``; any OSError skips it. The body is the flag byte ``own_lines``, the
    table's arrays, or ``arrays`` in their place, and its image ids as one JSON array (``json.dumps``),
    encoded a chunk of ids at a time."""
    sidecar, chunks = _sidecar(path), range(0, len(table), _CHUNK_LINES)
    if arrays is None:
        arrays = [table.values.T, table.matched, table.category_id, table.iou, table.gt_index]
    ids = ((", " * (i > 0) + json.dumps(table.image_id[i:i + _CHUNK_LINES])[1:-1]).encode() for i in chunks)
    with contextlib.suppress(OSError):
        if (now := path.stat()).st_size != stat.st_size or now.st_mtime_ns != stat.st_mtime_ns:
            return
        digest = _SHA256.copy()
        fd, tmp = tempfile.mkstemp(dir=sidecar.parent, prefix=sidecar.name)
        try:
            with open(fd, "wb") as fh:
                fh.write(_MAGIC + key + len(table).to_bytes(8, "little") + bytes(32))
                for part in chain([bytes([own_lines])], map(np.ascontiguousarray, arrays), [b"["], ids, [b"]"]):
                    fh.write(part)
                    digest.update(part)
                fh.seek(_DIGEST)
                fh.write(digest.digest())
            os.replace(tmp, sidecar)
        except OSError:
            os.remove(tmp)


def _matched_sample(obj: dict) -> MatchedSample:
    """The record of a matched-sample line, built by the checked constructors."""
    return MatchedSample(_native_detection(obj), obj["matched"], obj.get("iou", 0.0), obj.get("gt_index"))


def _sample_columns(objs: list) -> list:
    """``[ok, image_id, category_id, members, matched, iou, gt_index]`` of matched-sample records.

    The fields of :func:`~detcal.detections._object_columns`, the score, the
    label, the IoU and the ground-truth index, each checked for its type, then
    :func:`_sample_checks`.
    """
    ok = np.ones(len(objs), bool)
    image_id, category_id, *box = _object_columns(objs, ok)
    score = _field(objs, "score", ok)
    # A match label is a whole number 0 or 1: an int or a float equal to either.
    label = _field(objs, "matched", ok)
    iou_ = _field(objs, "iou", ok, default=0.0)
    gts = _get(objs, "gt_index", None)
    null = np.fromiter(map(operator.is_, gts, repeat(None)), bool, len(gts))
    typed = set(map(type, gts)) <= {int, type(None)}
    gt_index = _checked([0 if g is None else g for g in gts], typed, _gt_index, ok, np.int64)
    members, hit = _sample_checks(ok, score, box, label, iou_, gt_index, null)
    return [ok, image_id, category_id, members, hit.astype(np.int64), iou_, np.where(null, -1, gt_index)]


def _sample_checks(ok: np.ndarray, score: np.ndarray, box, label: np.ndarray, iou_: np.ndarray,
                   gt_index: np.ndarray, null: np.ndarray) -> tuple:
    """``(members, hit)``: the checks of a matched sample over its columns,
    :func:`~detcal.detections._detection_checks` and those of :class:`MatchedSample`.

    ``box`` holds the cx, cy, w and h columns, and ``null`` marks the samples
    that carry no ground-truth index. ``members`` (5, n) stacks the score and
    the clamped box in :data:`MEMBER_NAMES` order, as the reader stores them,
    and ``hit`` marks the matched samples. A row the checks reject is cleared
    in ``ok``.
    """
    members = np.array((score, *_detection_checks(ok, score, *box)))
    hit = label == 1
    ok &= hit | (label == 0)
    ok &= (iou_ >= 0.0) & (iou_ <= 1.0) & (hit | (iou_ == 0.0))
    ok &= np.where(hit, ~null & (gt_index >= 0), null)
    return members, hit
