"""Detection and annotation data model plus dataset ingestion.

Boxes are stored in image-relative center format ``(cx, cy, w, h)`` with all
four values in ``[0, 1]``. Two on-disk layouts are supported:

* the native interchange format: JSON Lines with relative-coordinate boxes,
  one record per line;
* COCO-compatible JSON (``images``/``annotations``/``categories`` objects or
  a results array) with absolute top-left pixel boxes, converted on read.

:func:`load_dataset` returns a :class:`DetectionTable` and a
:class:`GroundTruthTable`: read-only columns that read as immutable
sequences of :class:`Detection` and :class:`GroundTruthObject` records, each
record built only when it is read (:class:`RecordTable`).

The loaders read each field once as a column and apply the constructors'
checks over arrays, a field of unexpected types value by value with the
constructor's own check. Only the records these checks reject are built, by
the checked constructors in file order, which raise their ``file:line`` or
``file: result #i`` error (or warn under ``on_invalid="skip"``). Numbers are
ints or floats, never bools or numeric strings. The native annotation file
mixes image and category lines, read record by record, with object lines,
read as columns.
"""

from __future__ import annotations

import functools
import gc
import json
import logging
import math
import numbers
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .errors import ParseError, ReferentialIntegrityError, UsageError, ValidationError

logger = logging.getLogger(__name__)

# Maximum fraction of an image dimension a box may extend beyond the image
# before the record is rejected instead of clamped.
EDGE_CLAMP_TOLERANCE = 0.02
# Category ids and ground-truth indices are stored as int64.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

ImageId = str | int
CategoryTable = dict[int, str]
_NUMBER = {int, float}


def _real(value: Any, name: str = "value") -> float:
    """``value`` as a float when it is a real number: not a bool, and not a numeric string."""
    number = float(value)  # first, for the errors of a value no float holds
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return number


def _require_finite(name: str, value: float) -> float:
    value = _real(value, name)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _whole_number(value: Any) -> int | None:
    """``value`` as an int when it is an integer (not a bool) or an integral float, else None."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _category_id(value: Any) -> int:
    """A category id as an int: a whole number (see :func:`_whole_number`) within int64, never truncated."""
    category_id = _whole_number(value)
    if category_id is None:
        raise ValidationError(f"category_id must be a whole number, got {value!r}")
    if not INT64_MIN <= category_id <= INT64_MAX:
        raise ValidationError(f"category_id must fit in 64 bits, got {category_id}")
    return category_id


def _image_id(value: Any) -> ImageId:
    """An image id: a str or an int, never a bool or a float.

    Image ids key the matcher's groups and the image table, where ``True``
    and ``1.0`` would stand for image ``1``.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValidationError(f"image_id must be a string or an integer, got {value!r}")
    return value


def _crowd_flag(value: Any) -> bool:
    """A crowd flag as a bool: a bool or an integer, never a string such as ``"false"``."""
    if not isinstance(value, (bool, np.bool_, numbers.Integral)):
        raise ValidationError(f"crowd flag must be a bool or an integer, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class BoxGeometry:
    """Axis-aligned box in image-relative center format."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValidationError(f"box center out of range: cx={self.cx}, cy={self.cy}")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValidationError(f"box size out of range: w={self.w}, h={self.h}")
        overhang = max(
            0.5 * self.w - self.cx,
            self.cx + 0.5 * self.w - 1.0,
            0.5 * self.h - self.cy,
            self.cy + 0.5 * self.h - 1.0,
        )
        if overhang > EDGE_CLAMP_TOLERANCE + 1e-12:
            raise ValidationError(
                f"box extends {overhang:.4f} beyond the image, above the "
                f"{EDGE_CLAMP_TOLERANCE:.0%} clamping tolerance: {self}"
            )

    def corners(self) -> tuple[float, float, float, float]:
        """Return ``(x1, y1, x2, y2)`` in relative coordinates."""
        return (
            self.cx - 0.5 * self.w,
            self.cy - 0.5 * self.h,
            self.cx + 0.5 * self.w,
            self.cy + 0.5 * self.h,
        )


def valid_boxes(cx: np.ndarray, cy: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Where :class:`BoxGeometry` accepts ``(cx, cy, w, h)``: its checks over float arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        # The range tests also reject NaN and infinities.
        ok = (cx >= 0.0) & (cx <= 1.0) & (cy >= 0.0) & (cy <= 1.0)
        ok &= (w > 0.0) & (w <= 1.0) & (h > 0.0) & (h <= 1.0)
        edge = np.maximum.reduce([0.5 * w - cx, cx + 0.5 * w - 1.0, 0.5 * h - cy, cy + 0.5 * h - 1.0])
        return ok & (edge <= EDGE_CLAMP_TOLERANCE + 1e-12)


@dataclass(frozen=True)
class Detection:
    """One predicted box with class label and confidence score."""

    image_id: ImageId
    category_id: int
    score: float
    box: BoxGeometry

    def __post_init__(self):
        score = _require_finite("score", self.score)
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"score must lie in [0, 1], got {score}")
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "category_id", _category_id(self.category_id))
        _image_id(self.image_id)


@dataclass(frozen=True)
class GroundTruthObject:
    """One annotated box. Crowd regions are skipped by the matcher by default."""

    image_id: ImageId
    category_id: int
    box: BoxGeometry
    crowd_flag: bool = False

    def __post_init__(self):
        object.__setattr__(self, "category_id", _category_id(self.category_id))
        object.__setattr__(self, "crowd_flag", _crowd_flag(self.crowd_flag))
        _image_id(self.image_id)


@dataclass(frozen=True)
class ImageRecord:
    """Pixel dimensions of one image, keyed by its identifier."""

    image_id: ImageId
    width_px: int
    height_px: int

    def __post_init__(self):
        _image_id(self.image_id)
        width, height = (_pixels(self.image_id, v) for v in (self.width_px, self.height_px))
        if width <= 0 or height <= 0:
            raise ValidationError(
                f"image {self.image_id!r} has nonpositive dimensions "
                f"{self.width_px}x{self.height_px}"
            )
        try:
            float(max(width, height))  # as the COCO loaders convert boxes against it
        except OverflowError:
            raise ValidationError(f"image {self.image_id!r} has a side of more pixels than a float holds") from None
        object.__setattr__(self, "width_px", width)
        object.__setattr__(self, "height_px", height)


def _pixels(image_id: ImageId, value: Any) -> int:
    """An image side as an int: a whole number (see :func:`_whole_number`), never truncated."""
    pixels = _whole_number(value)
    if pixels is not None:
        return pixels
    raise ValidationError(f"image {image_id!r} needs a whole number of pixels per side, got {value!r}")


def box_from_absolute(bbox: Iterable[float], width_px: int, height_px: int) -> BoxGeometry:
    """Convert an absolute ``[x, y, w, h]`` top-left pixel box to relative center format: one row of
    :func:`_boxes_from_absolute`.

    Boxes sticking out of the image by at most :data:`EDGE_CLAMP_TOLERANCE` of the image dimension are
    clamped back inside; larger overhangs raise :class:`ValidationError`, as do nonpositive box sizes.
    """
    x, y, w, h = (_real(v, "bbox value") for v in bbox)
    size = np.array([[float(width_px), float(height_px)]])
    _, box, (nonpositive, overhang, collapsed) = _boxes_from_absolute(np.array([[x, y, w, h]]), size)
    if nonpositive[0]:
        raise ValidationError(f"box has nonpositive width/height: {[x, y, w, h]}")
    if overhang[0] > EDGE_CLAMP_TOLERANCE:
        raise ValidationError(
            f"box {[x, y, w, h]} extends {overhang[0]:.4f} beyond the "
            f"{width_px}x{height_px} image, above the {EDGE_CLAMP_TOLERANCE:.0%} tolerance"
        )
    if collapsed[0]:
        raise ValidationError(f"box {[max(x, 0.0), max(y, 0.0), w, h]} collapses after clamping")
    return BoxGeometry(*(float(c[0]) for c in box))


def _boxes_from_absolute(xywh: np.ndarray, size: np.ndarray) -> tuple:
    """:func:`box_from_absolute` over the rows of ``xywh`` (n, 4), in images of ``size`` (n, 2).

    Returns ``(ok, (cx, cy, w, h), (nonpositive, overhang, collapsed))`` with the same float arithmetic:
    ``ok`` marks the rows it accepts and whose box :class:`BoxGeometry` accepts, and the sub-checks the
    rows of nonpositive size, each row's larger overhang as a fraction of its image side, and the rows
    that clamping collapses. The box is the converted one (:func:`_converted_boxes`) as
    :func:`_boxes_from_relative` clamps it, which a matched-sample file then reads back bit for bit: an
    edge at the border can convert an ulp past it.
    """
    ok, box, checks = _converted_boxes(xywh, size)
    kept, box, _ = _boxes_from_relative(*box)
    return ok & kept, box, checks


def _converted_boxes(xywh: np.ndarray, size: np.ndarray) -> tuple:
    """:func:`_boxes_from_absolute`'s result before the relative clamp; its temporaries are freed when it
    returns, before that clamp makes its own."""
    x, y, w, h = xywh.T
    width, height = size.T
    with np.errstate(over="ignore", invalid="ignore"):
        x2, y2 = x + w, y + h
        zero = np.zeros(len(xywh))
        nonpositive = (w <= 0.0) | (h <= 0.0)
        # fmax passes over NaN, as max(0.0, ...) does.
        overhang = np.maximum(np.fmax.reduce([zero, -x, x2 - width]) / width,
                              np.fmax.reduce([zero, -y, y2 - height]) / height)
        x, y = np.maximum(x, 0.0), np.maximum(y, 0.0)
        x2, y2 = np.minimum(x2, width), np.minimum(y2, height)
        collapsed = (x2 <= x) | (y2 <= y)
        cx, cy = (x + x2) / (2.0 * width), (y + y2) / (2.0 * height)
        w, h = (x2 - x) / width, (y2 - y) / height
    ok = np.isfinite(xywh).all(axis=1) & ~nonpositive & (overhang <= EDGE_CLAMP_TOLERANCE) & ~collapsed
    return ok, (cx, cy, w, h), (nonpositive, overhang, collapsed)


def _box_from_relative(obj: dict[str, Any]) -> BoxGeometry:
    """The box of a native-format ``{cx, cy, w, h}`` mapping, small overhangs clamped: one row of
    :func:`_boxes_from_relative`."""
    try:
        cx, cy, w, h = (_real(obj[k], k) for k in ("cx", "cy", "w", "h"))
    except KeyError as exc:
        raise ValidationError(f"box record missing field {exc}") from exc
    _, box, (nonpositive, overhang) = _boxes_from_relative(*np.array([[cx], [cy], [w], [h]]))
    if nonpositive[0]:
        raise ValidationError(f"box has nonpositive width/height: {obj}")
    if overhang[0] > EDGE_CLAMP_TOLERANCE:
        raise ValidationError(
            f"box {obj} extends {overhang[0]:.4f} beyond the image, above the "
            f"{EDGE_CLAMP_TOLERANCE:.0%} tolerance"
        )
    return BoxGeometry(*(float(c[0]) for c in box))


def _boxes_from_relative(cx: np.ndarray, cy: np.ndarray, w: np.ndarray, h: np.ndarray) -> tuple:
    """:func:`_box_from_relative` over float columns; returns ``(ok, (cx, cy, w, h), (nonpositive,
    overhang))`` as :func:`_boxes_from_absolute` does. A box that clamping collapses fails :class:`BoxGeometry`."""
    # Rows with an infinity make NaN on the way; the finiteness test rejects them.
    ok = np.isfinite(cx) & np.isfinite(cy) & np.isfinite(w) & np.isfinite(h)
    with np.errstate(over="ignore", invalid="ignore"):
        nonpositive = (w <= 0.0) | (h <= 0.0)
        x1, y1, x2, y2 = cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h
        # fmax passes over NaN, as max(0.0, ...) does.
        overhang = np.fmax.reduce([np.zeros(len(cx)), -x1, x2 - 1.0, -y1, y2 - 1.0])
        x1, y1 = np.where(x1 < 0.0, 0.0, x1), np.where(y1 < 0.0, 0.0, y1)
        x2, y2 = np.where(x2 > 1.0, 1.0, x2), np.where(y2 > 1.0, 1.0, y2)
        clamp = overhang > 0.0
        cx, cy = np.where(clamp, (x1 + x2) / 2.0, cx), np.where(clamp, (y1 + y2) / 2.0, cy)
        w, h = np.where(clamp, x2 - x1, w), np.where(clamp, y2 - y1, h)
    ok &= ~nonpositive & (overhang <= EDGE_CLAMP_TOLERANCE)
    return ok & valid_boxes(cx, cy, w, h), (cx, cy, w, h), (nonpositive, overhang)


def _parse_line(path: Path, lineno: int, line: str) -> dict:
    """The JSON object on a nonblank line; anything else raises :class:`ParseError` with ``file:line``."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"{path}:{lineno}: line is not valid UTF-8") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer past the interpreter's digit limit, or nesting past its
        # recursion limit.
        raise ParseError(f"{path}:{lineno}: unreadable JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}:{lineno}: expected a JSON object per line")
    return obj


# Lines per json.loads call: one call per line spends most of its time in
# call overhead, one call per file holds every parsed record at once.
_CHUNK_LINES = 1024
# Two top-level objects on one line must meet in a "}", "," and "{" run on
# that line (a line holds no newline, and a string no raw newline). With
# none, a chunk parsing to as many objects as it has lines has one object
# per line.
_TWO_OBJECTS = re.compile(r"\}[ \t]*,[ \t]*\{")


def _jsonl_chunks(path: Path):
    """Yield the line numbers and objects of the nonblank lines of each chunk, one ``json.loads`` call each.

    The file is read :data:`_CHUNK_LINES` lines at a time, and a chunk is
    yielded before the next is read, so only one chunk's text and objects
    are held at once; a chunk of blank lines only is passed over. A chunk
    that does not parse to one object per line is parsed line by line
    (:func:`_parse_line`), and a bad line raises after the lines before it are yielded.
    """
    # surrogateescape keeps undecodable bytes attributable to their line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        start = 1
        while part := list(islice(fh, _CHUNK_LINES)):
            lineno, start = range(start, start + len(part)), start + len(part)
            if not all(map(str.strip, part)):
                lineno = [k for k, line in zip(lineno, part) if line.strip()]
                part = [line for line in part if line.strip()]
                if not part:
                    continue
            text, objs = "[" + ",".join(part) + "]", []
            if not _TWO_OBJECTS.search(text):
                try:
                    if not text.isascii():
                        text.encode("utf-8")
                    objs = json.loads(text)
                except (ValueError, RecursionError):
                    pass
            if len(objs) != len(part) or set(map(type, objs)) != {dict}:
                objs = []
                for k, line in zip(lineno, part):
                    try:
                        objs.append(_parse_line(path, k, line))
                    except ParseError:
                        yield lineno, objs  # the lines before the bad one first
                        raise
            yield lineno, objs


# Bytes per read while counting lines.
_COUNT_BYTES = 1 << 16


def _count_lines(path: Path, digest=None) -> int:
    """The number of lines :func:`_jsonl_chunks` reads from the file, blank ones included.

    Lines end as in the text reader's universal newlines mode: at ``\\n``,
    ``\\r\\n`` or a bare ``\\r``; a final line may lack its end. Neither
    byte occurs inside a UTF-8 sequence, so the bytes are counted directly.
    ``digest``, a :mod:`hashlib` object, is fed every byte counted.
    """
    lines, last = 0, b""
    with open(path, "rb") as fh:
        while block := fh.read(_COUNT_BYTES):
            if digest is not None:
                digest.update(block)
            lines += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
            if b"\r" in block:
                lines += block.count(b"\r") - block.count(b"\r\n")
            if last == b"\r" and block.startswith(b"\n"):
                lines -= 1  # one "\r\n", split between two blocks
            last = block[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def read_json(path: Path) -> Any:
    """Parse a file holding one JSON document.

    Bytes that are not UTF-8 and malformed JSON raise :class:`ParseError`
    with ``file:line`` context. The file's bytes are dropped once decoded, so
    its text and the parsed document are held together, not its bytes too.
    """
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: file is not valid UTF-8") from exc
    del raw
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: unreadable JSON: {exc}") from exc


# Characters per read while sniffing: enough for the first line of a native
# file, and for the opening bracket of a results array on one long line.
_SNIFF_CHARS = 4096
_JSON_WHITESPACE = " \t\n\r"


def _sniff(path: Path) -> tuple[str, Any]:
    """``"native"`` (JSON Lines) or ``"coco"`` (one JSON document), and the document when that parsed the whole file.

    A first line that opens an array is a results document, decided from
    its first characters. Any other first line is parsed; when it is the
    whole file, as in a one-line COCO annotation document, that parse is
    returned for the loader (None otherwise, and for a file holding
    ``null``).
    """
    # Undecodable bytes are left for the loader to report with their line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline(_SNIFF_CHARS)
        # A first line that is blank so far and goes on is read on.
        while first.isspace() and not first.endswith("\n"):
            more = fh.readline(_SNIFF_CHARS)
            if not more:
                break
            first += more
        if not first.strip():
            return "native", None
        if first.lstrip().startswith("["):
            # A native line holds an object; an array is a COCO results document,
            # left unparsed here, since its first line is often the whole file.
            return "coco", None
        if not first.endswith("\n"):
            first += fh.readline()
        rest = fh.read(_SNIFF_CHARS)
        whole = not rest.strip(_JSON_WHITESPACE) and not fh.read(1)
    try:
        value = json.loads(first)
    except (ValueError, RecursionError):
        # Single pretty-printed JSON document spanning several lines, or one
        # the loader reports as unreadable.
        return "coco", None
    if rest.strip():
        return "native", None
    # One-line file: a native record is a flat object carrying a relative box.
    if isinstance(value, dict) and ("box" in value or "image" in value or "category" in value):
        return "native", None
    if not whole:
        return "coco", None
    # The parse stands for the loader's own: nothing but JSON whitespace
    # follows, and the loader takes only UTF-8.
    try:
        first.encode("utf-8")
    except UnicodeEncodeError:
        return "coco", None
    return "coco", value


class _RecordPolicy:
    """Shared fail-versus-skip handling for record-level validation errors."""

    def __init__(self, on_invalid: str):
        if on_invalid not in ("fail", "skip"):
            raise UsageError(f"on_invalid must be 'fail' or 'skip', got {on_invalid!r}")
        self.on_invalid = on_invalid
        self.skipped = 0

    def record(self, context: str, what: str, make: Callable[[Any], Any], rec: Any) -> Any:
        """``make(rec)``, or None when the record is invalid and skipped.

        A missing field always fails. A malformed value (``TypeError``,
        ``ValueError``, ``OverflowError``) is an invalid record like any
        :class:`ValidationError`.
        """
        try:
            return make(rec)
        except KeyError as exc:
            raise ValidationError(f"{context}: {what} record missing field {exc}") from exc
        except ValidationError as exc:
            error = exc
        except (TypeError, ValueError, OverflowError) as exc:
            error = ValidationError(f"invalid {what} record: {exc}")
        if self.on_invalid == "fail":
            raise type(error)(f"{context}: {error}") from error
        self.skipped += 1
        logger.warning("skipping %s: %s", context, error)
        return None

    def keep(self, ok: np.ndarray, what: str, make: Callable, recs: list, context: Callable,
             columns: list) -> list:
        """The rows of ``columns`` that ``ok`` marks (lists as tuples; an array's rows run along its last
        axis), once :meth:`record` has decided, in order, each record ``ok`` rejects, for which ``make`` raises."""
        for i in np.flatnonzero(~ok).tolist():
            self.record(context(i), what, make, recs[i])
        if not ok.all():
            columns = [c[..., ok] if isinstance(c, np.ndarray) else compress(c, ok) for c in columns]
        return [c if isinstance(c, np.ndarray) else tuple(c) for c in columns]


def _category(rec: Any) -> tuple[int, str]:
    """``(id, name)`` of a category record; the name defaults to the id."""
    cid = rec["id"]  # only a JSON object gets this far
    return _category_id(cid), str(rec.get("name", cid))


def _native_ground_truth(obj: dict[str, Any]) -> GroundTruthObject:
    return GroundTruthObject(obj["image_id"], obj["category_id"], _box_from_relative(obj["box"]),
                             obj.get("crowd_flag", False))


def _native_image(rec: Any) -> ImageRecord:
    return ImageRecord(rec["image_id"], rec["width_px"], rec["height_px"])


# A field a record lacks, and a record that is no object: an empty object,
# unhashable and no number, which every field check rejects.
_MISSING: dict = {}


def _get(objs: list, key: str, default: Any = _MISSING) -> list:
    """``obj[key]`` of every record, ``default`` where it is missing (:data:`_MISSING` too for a non-dict)."""
    try:
        if default is _MISSING:
            return list(map(operator.itemgetter(key), objs))
        return [obj.get(key, default) for obj in objs]
    except (KeyError, TypeError, AttributeError):
        return [obj.get(key, default) if type(obj) is dict else _MISSING for obj in objs]


def _checked(values: list, typed: bool, convert: Callable, ok: np.ndarray, dtype: Any = np.float64, fill=0):
    """``values`` as an array of ``dtype`` (a list for None), as they are when ``typed`` holds and they fit.

    Otherwise each goes through ``convert``, the constructor's own check of the
    field; a value it rejects clears its row in ``ok`` and is replaced by ``fill``.
    """
    if typed:
        try:
            return values if dtype is None else np.array(values, dtype)
        except OverflowError:  # an int past the range of dtype
            pass
    out = []
    for i, value in enumerate(values):
        try:
            out.append(convert(value))
        except (ValidationError, TypeError, ValueError, OverflowError):
            ok[i] = False
            out.append(fill)
    return out if dtype is None else np.array(out, dtype)


def _field(objs: list, key: str, ok: np.ndarray, kinds: set = _NUMBER, convert: Callable = _real,
           dtype: Any = np.float64, fill: Any = 0, default: Any = _MISSING):
    """:func:`_checked` of ``obj[key]`` of every record, typed when every value's type is in ``kinds``."""
    values = _get(objs, key, default)
    return _checked(values, set(map(type, values)) <= kinds, convert, ok, dtype, fill)


def _resize_columns(table: list, rows: int, size: int) -> None:
    """Give the array columns of ``table`` ``size`` rows along their last axis, keeping their first ``rows``.

    One column is copied at a time, so only that column is held twice.
    """
    for i, column in enumerate(table):
        if isinstance(column, np.ndarray):
            table[i] = np.empty(column.shape[:-1] + (size,), column.dtype)
            table[i][..., :rows] = column[..., :rows]


def _read_jsonl(path: Path, policy: _RecordPolicy, what: str, make: Callable, columns: Callable,
                chunks: Iterable | None = None, size: int | None = None) -> list:
    """The columns of the accepted records of a JSON Lines file (lists as tuples), in file order.

    ``columns(objs)`` gives ``[ok, *columns]`` of each chunk, whose rejected records ``policy`` decides.
    Each array column is allocated once at a regular file's line count (:func:`_count_lines`), which
    no record count exceeds, filled chunk by chunk, and trimmed only when rows were skipped or lines
    were blank. A pipe, which cannot be read twice, and a file that grew while it was read fill
    columns that double as they run out. List columns are joined from their chunks. ``chunks``, when
    given, stands for the file's :func:`_jsonl_chunks`, and ``size``, when given, for its line count.
    """
    size, rows = (_count_lines(path) if path.is_file() else 0) if size is None else size, 0
    table = [np.empty(c.shape[:-1] + (size,), c.dtype) if isinstance(c, np.ndarray) else []
             for c in columns([])[1:]]
    for numbers, objs in _jsonl_chunks(path) if chunks is None else chunks:
        ok, *cols = columns(objs)
        cols = policy.keep(ok, what, make, objs, lambda i: f"{path}:{numbers[i]}", cols)
        kept = rows + int(np.count_nonzero(ok))
        if kept > size:
            size = max(kept, 2 * size)
            _resize_columns(table, rows, size)
        for column, c in zip(table, cols):
            if isinstance(column, list):
                column.append(c)
            else:
                column[..., rows:kept] = c
        rows = kept
        del objs, cols  # before the next chunk is parsed
    if rows < size:  # skipped rows, blank lines or a pipe's spare capacity
        _resize_columns(table, rows, rows)
    return [tuple(chain.from_iterable(c)) if isinstance(c, list) else c for c in table]


def _object_columns(objs: list, ok: np.ndarray) -> list:
    """``[image_id, category_id, cx, cy, w, h]`` of native detection or object records, the box as
    written (:func:`_boxes_from_relative` clamps it); a value the constructors reject clears its row in ``ok``."""
    image_id = _field(objs, "image_id", ok, {str, int}, _image_id, dtype=None, fill=None)
    category_id = _field(objs, "category_id", ok, {int}, _category_id, np.int64)
    boxes = _get(objs, "box")
    return [image_id, category_id, *(_field(boxes, key, ok) for key in ("cx", "cy", "w", "h"))]


def _detection_checks(ok: np.ndarray, score: np.ndarray, cx, cy, w, h) -> tuple:
    """``(cx, cy, w, h)`` as :func:`_boxes_from_relative` clamps them: the checks of a native detection's
    box and score over float columns. A row they reject is cleared in ``ok``."""
    box_ok, box, _ = _boxes_from_relative(cx, cy, w, h)
    ok &= box_ok & (score >= 0.0) & (score <= 1.0)
    return box


def _detection_columns(objs: list, images: dict[ImageId, ImageRecord] | None = None) -> list:
    """``[ok, image_id, category_id, cx, cy, w, h, score]`` of native records; ``ok`` marks what
    :func:`_native_detection` accepts."""
    ok = np.ones(len(objs), bool)
    image_id, category_id, *box = _object_columns(objs, ok)
    if images:
        ok &= np.fromiter(map(images.__contains__, image_id), bool, len(objs))
    score = _field(objs, "score", ok)
    return [ok, image_id, category_id, *_detection_checks(ok, score, *box), score]


def _ground_truth_columns(objs: list) -> list:
    """``[ok, image_id, category_id, cx, cy, w, h, crowd]`` of native object records; ``ok`` marks
    what :func:`_native_ground_truth` accepts."""
    ok = np.ones(len(objs), bool)
    image_id, category_id, *box = _object_columns(objs, ok)
    box_ok, box, _ = _boxes_from_relative(*box)
    ok &= box_ok
    crowd = _field(objs, "crowd_flag", ok, {bool, int}, _crowd_flag, bool, fill=False, default=False)
    return [ok, image_id, category_id, *box, crowd]


def _native_detection(obj: dict[str, Any], images: dict[ImageId, ImageRecord] | None = None) -> Detection:
    """The detection of a native record, of an image in ``images`` when that is not empty."""
    if images and obj["image_id"] not in images:
        raise ReferentialIntegrityError(f"unknown image_id {obj['image_id']!r}")
    return Detection(obj["image_id"], obj["category_id"], obj["score"], _box_from_relative(obj["box"]))


def _object_lines(path: Path, images: dict[ImageId, ImageRecord], categories: CategoryTable):
    """The chunks of :func:`_jsonl_chunks` of a native annotation file, each with its object lines only.

    Image and category lines are read record by record into ``images`` and ``categories``, and never
    skipped. A bad one raises after the object lines before it are yielded, as a malformed line does.
    """
    strict = _RecordPolicy("fail")
    for numbers, objs in _jsonl_chunks(path):
        others = [i for i, obj in enumerate(objs) if "image" in obj or "category" in obj]
        end, error = len(objs), None
        for i in others:
            context, obj = f"{path}:{numbers[i]}", objs[i]
            try:
                if "image" in obj:
                    image = strict.record(context, "image", _native_image, obj["image"])
                    if image.image_id in images:
                        raise ValidationError(f"{context}: duplicate image record {image.image_id!r}")
                    images[image.image_id] = image
                else:
                    try:
                        cid, name = _category(obj["category"])
                    except KeyError as exc:
                        raise ValidationError(f"{context}: category record missing field {exc}") from exc
                    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
                        raise ValidationError(f"{context}: invalid category record: {exc}") from exc
                    categories[cid] = name
            except ValidationError as exc:
                end, error = i, exc
                break
        if others:
            rows = sorted(set(range(end)).difference(others))
            numbers, objs = [numbers[i] for i in rows], [objs[i] for i in rows]
        yield numbers, objs
        del numbers, objs  # before the next chunk is parsed
        if error is not None:
            raise error


def _load_native_annotations(path: Path, policy: _RecordPolicy):
    """Images, ground truth and categories of a native annotation file: object lines as columns
    (:func:`_ground_truth_columns`), image and category lines record by record (:func:`_object_lines`).
    The first bad line in file order raises, whatever its kind."""
    images: dict[ImageId, ImageRecord] = {}
    categories: CategoryTable = {}
    columns = _read_jsonl(path, policy, "annotation", _native_ground_truth, _ground_truth_columns,
                          _object_lines(path, images, categories))
    return images, GroundTruthTable(*columns), categories


def _column(records: Sequence, name: str, dtype=np.float64) -> np.ndarray:
    """The ``name`` attribute of every record, as an array of ``dtype``."""
    return np.fromiter(map(operator.attrgetter(name), records), dtype, len(records))


class RecordTable(Sequence):
    """Read-only columns that read as an immutable sequence of records.

    A subclass is a frozen dataclass of columns, one entry per row in each:
    read-only numpy arrays and an ``image_id`` tuple of the original ids.
    Records are built only when read, by the checked constructors, from
    ``.tolist()`` columns: an int index, numpy ints included, builds one,
    iteration builds them all, and a slice returns a table. A row that its
    record rejects raises that record's :class:`ValidationError` when read.
    A table equals a list, or a table, of equal records.
    """

    image_id: tuple

    def __post_init__(self):
        for column in self._columns():
            if isinstance(column, np.ndarray):
                column.setflags(write=False)

    def _columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def _build(self, rows: slice) -> list:
        """The records of ``rows``."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.image_id)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        i = range(len(self))[key]
        return self._build(slice(i, i + 1))[0]

    def __iter__(self):
        return iter(self._build(slice(None)))

    def __eq__(self, other):
        if not isinstance(other, (list, RecordTable)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None

    def take(self, idx) -> RecordTable:
        """The rows at integer indices ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        picked = idx.tolist()
        return type(self)(*(
            tuple(map(column.__getitem__, picked)) if isinstance(column, tuple) else column[idx]
            for column in self._columns()
        ))


@dataclass(frozen=True, eq=False)
class DetectionTable(RecordTable):
    """Detections as columns, read as a sequence of :class:`Detection` records.

    ``image_id`` is a tuple of the original ids, ``category_id`` int64, and
    the box columns ``cx``, ``cy``, ``w``, ``h`` and ``score`` float64.
    """

    image_id: tuple
    category_id: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray
    score: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[Detection]) -> DetectionTable:
        """The table of a record sequence; a table is returned unchanged."""
        if isinstance(records, cls):
            return records
        boxes = [rec.box for rec in records]
        return cls(
            tuple(rec.image_id for rec in records),
            _column(records, "category_id", np.int64),
            *(_column(boxes, name) for name in ("cx", "cy", "w", "h")),
            _column(records, "score"),
        )

    def _build(self, rows: slice) -> list[Detection]:
        boxes = map(BoxGeometry, *(c[rows].tolist() for c in (self.cx, self.cy, self.w, self.h)))
        return list(map(Detection, self.image_id[rows], self.category_id[rows].tolist(),
                        self.score[rows].tolist(), boxes))


@dataclass(frozen=True, eq=False)
class GroundTruthTable(RecordTable):
    """Ground truth as columns, read as a sequence of :class:`GroundTruthObject` records.

    As :class:`DetectionTable`, with a bool ``crowd`` column in place of
    ``score``.
    """

    image_id: tuple
    category_id: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray
    crowd: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[GroundTruthObject]) -> GroundTruthTable:
        """The table of a record sequence; a table is returned unchanged."""
        if isinstance(records, cls):
            return records
        boxes = [rec.box for rec in records]
        return cls(
            tuple(rec.image_id for rec in records),
            _column(records, "category_id", np.int64),
            *(_column(boxes, name) for name in ("cx", "cy", "w", "h")),
            _column(records, "crowd_flag", bool),
        )

    def _build(self, rows: slice) -> list[GroundTruthObject]:
        boxes = map(BoxGeometry, *(c[rows].tolist() for c in (self.cx, self.cy, self.w, self.h)))
        return list(map(GroundTruthObject, self.image_id[rows], self.category_id[rows].tolist(),
                        boxes, self.crowd[rows].tolist()))


def _bbox(value: Any) -> tuple[float, ...]:
    """A COCO ``bbox`` as :func:`box_from_absolute` unpacks it: four real numbers."""
    x, y, w, h = map(_real, value)
    return x, y, w, h


def _coco_columns(recs: list, images: dict[ImageId, ImageRecord]) -> list:
    """``[ok, image_id, category_id, cx, cy, w, h]`` of COCO records; ``ok`` marks those of a known image
    whose fields the constructors accept."""
    ok = np.ones(len(recs), bool)
    image_id = _field(recs, "image_id", ok, {str, int}, _image_id, dtype=None, fill=None)
    # Row 0 of the sizes stands for an unknown image.
    index = dict(zip(images, range(1, len(images) + 1)))
    rows = np.fromiter(map(index.get, image_id, repeat(0)), np.intp, len(recs))
    ok &= rows > 0
    category_id = _field(recs, "category_id", ok, {int}, _category_id, np.int64)
    bbox = _get(recs, "bbox")
    typed = (set(map(type, bbox)) <= {list} and set(map(len, bbox)) <= {4}
             and set(map(type, chain.from_iterable(bbox))) <= _NUMBER)
    xywh = _checked(bbox, typed, _bbox, ok, fill=(0.0, 0.0, 1.0, 1.0)).reshape(-1, 4)
    size = np.array([(1.0, 1.0)] + [(float(im.width_px), float(im.height_px)) for im in images.values()])
    box_ok, box, _ = _boxes_from_absolute(xywh, size[rows])
    return [ok & box_ok, image_id, category_id, *box]


def _load_coco_annotations(path: Path, policy: _RecordPolicy, doc: Any = None):
    """The annotation document at ``path``; ``doc``, when not None, is its parse."""
    if doc is None:
        doc = read_json(path)
    if not isinstance(doc, dict) or "images" not in doc:
        raise ValidationError(f"{path}: COCO annotation file must contain an 'images' array")
    images: dict[ImageId, ImageRecord] = {}
    try:
        for rec in doc["images"]:
            image = ImageRecord(rec["id"], rec["width"], rec["height"])
            if image.image_id in images:
                raise ValidationError(f"duplicate image id {image.image_id!r}")
            images[image.image_id] = image
        categories: CategoryTable = dict(map(_category, doc.get("categories", [])))
    except KeyError as exc:
        raise ValidationError(f"{path}: image or category record missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"{path}: invalid image or category record: {exc}") from exc

    def make(rec):
        image = images.get(rec["image_id"])
        if image is None:
            raise ReferentialIntegrityError(f"unknown image_id {rec['image_id']!r}")
        return GroundTruthObject(rec["image_id"], rec["category_id"],
                                 box_from_absolute(rec["bbox"], image.width_px, image.height_px),
                                 rec.get("iscrowd", 0))

    annotations = doc.get("annotations", [])
    if not isinstance(annotations, list):
        raise ValidationError(f"{path}: COCO 'annotations' must be an array")
    ok, *columns = _coco_columns(annotations, images)
    crowd = _field(annotations, "iscrowd", ok, {int, bool}, _crowd_flag, dtype=bool, fill=False, default=0)
    columns = policy.keep(ok, "annotation", make, annotations, lambda i: f"{path}: annotation #{i}",
                          [*columns, crowd])
    return images, GroundTruthTable(*columns), categories


def _load_coco_detections(
    path: Path, images: dict[ImageId, ImageRecord], policy: _RecordPolicy, doc: Any = None
):
    """The results document at ``path``; ``doc``, when not None, is its parse."""
    if doc is None:
        doc = read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("annotations", doc.get("results"))
    if not isinstance(doc, list):
        raise ValidationError(f"{path}: COCO detection file must be a results array")

    def make(rec):
        image = images.get(rec["image_id"])
        if image is None:
            raise ReferentialIntegrityError(f"unknown image_id {rec['image_id']!r}")
        return Detection(rec["image_id"], rec["category_id"], rec["score"],
                         box_from_absolute(rec["bbox"], image.width_px, image.height_px))

    ok, *columns = _coco_columns(doc, images)
    score = _field(doc, "score", ok)
    ok &= (score >= 0.0) & (score <= 1.0)
    columns = policy.keep(ok, "result", make, doc, lambda i: f"{path}: result #{i}", [*columns, score])
    return DetectionTable(*columns)


def load_dataset(
    detections_path: str | Path,
    annotations_path: str | Path,
    *,
    fmt: str = "auto",
    on_invalid: str = "fail",
) -> tuple[DetectionTable, GroundTruthTable, CategoryTable]:
    """Load a detection file and its annotation file into the relative data model.

    ``fmt`` selects ``"native"`` JSON Lines, ``"coco"`` JSON, or ``"auto"``
    sniffing per file. ``on_invalid`` controls record-level validation
    failures: ``"fail"`` raises, ``"skip"`` drops the record with a warning.
    Input order is preserved for all surviving records, which are returned
    as a :class:`DetectionTable` and a :class:`GroundTruthTable`.

    The cyclic garbage collector is paused until the load returns, and left
    as it was found. Everything parsed here is a tree of dicts, lists, strs
    and numbers, which holds no reference cycles and is dropped before the
    return, so a collection pass over it would free nothing.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return _load_dataset(Path(detections_path), Path(annotations_path), fmt, on_invalid)
    finally:
        if enabled:
            gc.enable()


def _load_dataset(
    detections_path: Path, annotations_path: Path, fmt: str, on_invalid: str
) -> tuple[DetectionTable, GroundTruthTable, CategoryTable]:
    if fmt not in ("auto", "native", "coco"):
        raise UsageError(f"unknown dataset format {fmt!r}")
    # Sniffing hands on a one-line document it parsed whole.
    ann_fmt, ann_doc = _sniff(annotations_path) if fmt == "auto" else (fmt, None)
    det_fmt, det_doc = _sniff(detections_path) if fmt == "auto" else (fmt, None)
    policy = _RecordPolicy(on_invalid)

    if ann_fmt == "native":
        images, ground_truth, categories = _load_native_annotations(annotations_path, policy)
    else:
        images, ground_truth, categories = _load_coco_annotations(annotations_path, policy, ann_doc)
    del ann_doc  # the tables stand for the parsed document from here on
    if det_fmt == "native":
        make, columns = (functools.partial(f, images=images) for f in (_native_detection, _detection_columns))
        detections = DetectionTable(*_read_jsonl(detections_path, policy, "detection", make, columns))
    else:
        if not images:
            raise ValidationError(
                f"{detections_path}: COCO detections need image dimensions from the annotation file"
            )
        detections = _load_coco_detections(detections_path, images, policy, det_doc)

    if not categories:
        ids = np.union1d(ground_truth.category_id, detections.category_id).tolist()
        categories = {cid: str(cid) for cid in ids}
    else:
        known = np.fromiter(categories, np.int64, len(categories))
        missing = np.flatnonzero(~np.isin(detections.category_id, known))
        if missing.size:
            raise ReferentialIntegrityError(
                f"{detections_path}: detection category {detections.category_id[missing[0]]} missing "
                f"from the category table of {annotations_path}"
            )
    if policy.skipped:
        logger.warning("skipped %d invalid records", policy.skipped)
    return detections, ground_truth, categories

