"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain nested-loop Python, separate
from the package's vectorized code paths, so agreement between the two is
meaningful.
"""

from __future__ import annotations

import collections
import contextlib
import logging
import math
import sys
import time
from pathlib import Path
from typing import Callable
from unittest import mock

import numpy as np

from detcal.detections import (
    EDGE_CLAMP_TOLERANCE,
    BoxGeometry,
    Detection,
    GroundTruthObject,
    ImageRecord,
    _category_id,
    _parse_line,
    _real,
    _RecordPolicy,
    read_json,
)
from detcal.errors import NumericalFailureError, ReferentialIntegrityError, UsageError, ValidationError
from detcal.matching import MatchedSample
from detcal.metrics import HeatmapGrid, binned_stats
from detcal.optimizer import (
    BACKTRACK_FACTOR,
    INITIAL_STEP,
    MAX_BACKTRACKS,
    MAX_STEP,
    SUFFICIENT_DECREASE,
    FitReport,
    Objective,
    OptimizerConfig,
)


def make_sample(score, matched, box=(0.5, 0.5, 0.2, 0.2), image_id=0, category_id=1, gt_index=None):
    det = Detection(image_id, category_id, float(score), BoxGeometry(*box))
    if matched:
        return MatchedSample(det, 1, iou=1.0, gt_index=0 if gt_index is None else gt_index)
    return MatchedSample(det, 0)


def record_bits(rec) -> tuple:
    """A record as ``(class, size of its instance dict, fields)``, nested, floats as ``float.hex``.

    Two records give equal tuples exactly when they hold the same values of
    the same types, bit for bit, set in the same order into dicts of the
    same size (key-shared dicts are smaller than unshared ones).
    """
    items = tuple(
        (name, record_bits(v) if hasattr(v, "__dataclass_fields__")
         else (type(v), v.hex() if type(v) is float else v))
        for name, v in vars(rec).items()
    )
    return type(rec), sys.getsizeof(vars(rec)), items


def reference_generate(spec) -> list[MatchedSample]:
    """``synth.generate`` with one checked constructor call per record, as it stood before it
    built records from columns; the field checks are left out."""
    rng = np.random.default_rng(spec.seed)
    boxes = np.asarray(spec.box_sampler(rng, spec.n_samples), dtype=np.float64)
    precision = np.asarray(spec.precision_field(boxes), dtype=np.float64)
    confidence = np.asarray(spec.confidence_field(boxes, precision), dtype=np.float64)
    matched = rng.random(spec.n_samples) < precision
    samples = []
    for i in range(spec.n_samples):
        detection = Detection(image_id=i, category_id=1, score=float(confidence[i]), box=BoxGeometry(*boxes[i]))
        if matched[i]:
            samples.append(MatchedSample(detection, matched=1, iou=1.0, gt_index=i))
        else:
            samples.append(MatchedSample(detection, matched=0))
    return samples


def random_matched_samples(rng: np.random.Generator, n: int, extreme_scores=True):
    """Arbitrary valid samples: boxes inside the image, scores possibly 0 or 1."""
    cx = rng.uniform(0.05, 0.95, n)
    cy = rng.uniform(0.05, 0.95, n)
    w = rng.uniform(0.01, 1.0, n) * 2.0 * np.minimum(cx, 1.0 - cx)
    h = rng.uniform(0.01, 1.0, n) * 2.0 * np.minimum(cy, 1.0 - cy)
    w = np.maximum(w, 1e-4)
    h = np.maximum(h, 1e-4)
    scores = rng.random(n)
    if extreme_scores:
        edge = rng.random(n)
        scores[edge < 0.02] = 0.0
        scores[edge > 0.98] = 1.0
    matched = rng.random(n) < np.clip(scores + rng.normal(0, 0.2, n), 0.05, 0.95)
    samples = []
    for i in range(n):
        samples.append(
            make_sample(
                scores[i],
                bool(matched[i]),
                box=(cx[i], cy[i], w[i], h[i]),
                image_id=i,
                gt_index=i,
            )
        )
    return samples


def reference_bin_index(value: float, n_bins: int) -> int:
    """Equal-width bin index of ``value`` in [0, 1]; the value 1.0 maps to the top bin."""
    if n_bins < 1:
        raise UsageError(f"bin count must be >= 1, got {n_bins}")
    if not 0.0 <= value <= 1.0:
        raise UsageError(f"binned value must lie in [0, 1], got {value}")
    return min(int(value * n_bins), n_bins - 1)


def _member_value(sample: MatchedSample, dim: str) -> float:
    if dim == "confidence":
        return sample.detection.score
    return getattr(sample.detection.box, dim)


def brute_force_dece(samples, dims, counts, min_samples=0, renormalize=True):
    """Nested-loop D-ECE; returns None when every bin is below min_samples."""
    bins: dict[tuple[int, ...], list] = {}
    for s in samples:
        key = tuple(
            min(int(_member_value(s, d) * n), n - 1) for d, n in zip(dims, counts)
        )
        rec = bins.setdefault(key, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += s.detection.score
        rec[2] += s.matched
    kept = {k: v for k, v in bins.items() if v[0] >= min_samples}
    if not kept:
        return None
    retained = sum(v[0] for v in kept.values())
    denom = retained if renormalize else len(samples)
    total = 0.0
    for key in sorted(kept):
        cnt, conf_sum, m_sum = kept[key]
        total += (cnt / denom) * abs(m_sum / cnt - conf_sum / cnt)
    return total


def classification_ece(scores, correct, n_bins):
    """Binned expected calibration error of a binary classifier."""
    bins: dict[int, list] = {}
    for p, y in zip(scores, correct):
        b = min(int(p * n_bins), n_bins - 1)
        rec = bins.setdefault(b, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += p
        rec[2] += y
    n = len(scores)
    ece = 0.0
    for b in sorted(bins):
        cnt, p_sum, y_sum = bins[b]
        ece += (cnt / n) * abs(y_sum / cnt - p_sum / cnt)
    return ece


def reference_heatmap(samples, spec, axes) -> HeatmapGrid:
    """The marginalized heatmap as a loop over the retained bins, adding each to its cell in bin order."""
    stats = binned_stats(samples, spec)
    ai, aj = spec.dims.index(axes[0]), spec.dims.index(axes[1])
    n1, n2 = spec.counts[ai], spec.counts[aj]
    count = np.zeros((n1, n2), dtype=np.int64)
    gap_sum = np.zeros((n1, n2))
    conf_sum = np.zeros((n1, n2))
    prec_sum = np.zeros((n1, n2))
    for b in range(len(stats.bin_counts)):
        i, j = stats.multi_indices[b, ai], stats.multi_indices[b, aj]
        n = stats.bin_counts[b]
        count[i, j] += n
        gap_sum[i, j] += n * abs(stats.prec[b] - stats.conf[b])
        conf_sum[i, j] += n * stats.conf[b]
        prec_sum[i, j] += n * stats.prec[b]
    with np.errstate(invalid="ignore"):
        safe = np.where(count > 0, count, 1)
        contrib = np.where(count > 0, gap_sum / safe, np.nan)
        confidence = np.where(count > 0, conf_sum / safe, np.nan)
        precision = np.where(count > 0, prec_sum / safe, np.nan)
    return HeatmapGrid(
        axes=tuple(axes),
        contrib=contrib,
        count=count,
        precision=precision,
        confidence=confidence,
        retained_samples=stats.retained_samples,
    )


def reference_heatmap_rows(grid: HeatmapGrid) -> list[tuple[int, int, float, int, float, float]]:
    """Occupied cells of ``grid`` by a double loop over its rows and columns."""
    n1, n2 = grid.count.shape
    rows = []
    for i in range(n1):
        for j in range(n2):
            if grid.count[i, j] > 0:
                rows.append((
                    i,
                    j,
                    float(grid.contrib[i, j]),
                    int(grid.count[i, j]),
                    float(grid.precision[i, j]),
                    float(grid.confidence[i, j]),
                ))
    return rows


def max_matching_count(iou_matrix: np.ndarray, threshold: float) -> int:
    """Size of the maximum detection-to-ground-truth assignment by exhaustion."""
    n_det, n_gt = iou_matrix.shape
    best = 0

    def recurse(i: int, used: frozenset, count: int):
        nonlocal best
        if i == n_det:
            best = max(best, count)
            return
        recurse(i + 1, used, count)
        for j in range(n_gt):
            if j not in used and iou_matrix[i, j] >= threshold:
                recurse(i + 1, used | {j}, count + 1)

    recurse(0, frozenset(), 0)
    return best


def log_multivariate_beta(alpha) -> float:
    return sum(math.lgamma(a) for a in alpha) - math.lgamma(sum(alpha))


def generalized_beta_log_density(s, alpha, beta) -> float:
    """Libby-Novick generalized beta log-density over [0,1]^K (index 0 shared)."""
    k = len(s)
    lam = np.asarray(beta[1:]) / beta[0]
    s = np.asarray(s, dtype=float)
    s_star = s / (1.0 - s)
    value = -log_multivariate_beta(alpha)
    for j in range(k):
        value += (
            alpha[j + 1] * math.log(lam[j])
            + (alpha[j + 1] - 1.0) * math.log(s_star[j])
            + 2.0 * math.log(s_star[j] / s[j])
        )
    value -= float(sum(alpha)) * math.log(1.0 + float(lam @ s_star))
    return value


def assert_same_columns(a, b):
    """Two ``SampleColumns`` hold the same bits, dtypes and layouts, and the same ids."""
    for name in ("values", "matched", "category_id", "iou", "gt_index"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.flags.f_contiguous) == (y.dtype, y.shape, y.flags.f_contiguous), name
        assert x.tobytes() == y.tobytes(), name
    # repr tells 1 from 1.0 and matches NaN ids.
    assert [(type(i), repr(i)) for i in a.image_id] == [(type(i), repr(i)) for i in b.image_id]


def greedy_match(detections, ground_truth, threshold, iou, exclude_crowd=True):
    """``(matched, iou, gt_index)`` per detection by the greedy rule, spelled out.

    Detections claim in (descending score, input order); each takes the
    unclaimed, non-excluded ground truth of its image and category with the
    highest IoU at or above ``threshold``, the lowest index among equals.
    """
    out = [(0, 0.0, None)] * len(detections)
    claimed = set()
    for i in sorted(range(len(detections)), key=lambda i: (-detections[i].score, i)):
        d = detections[i]
        candidates = [
            (iou(d.box, g.box), j)
            for j, g in enumerate(ground_truth)
            if j not in claimed
            and (g.image_id, g.category_id) == (d.image_id, d.category_id)
            and not (exclude_crowd and g.crowd_flag)
        ]
        candidates = [(v, j) for v, j in candidates if v >= threshold]
        if candidates:
            v, j = min(candidates, key=lambda c: (-c[0], c[1]))
            claimed.add(j)
            out[i] = (1, v, j)
    return out


def reference_gauss_newton(a: np.ndarray, r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a^T diag(q (1 - q)) a / n`` with ``q = r + m``, as one product over a weighted copy of all of ``a``."""
    q = r + m
    return np.multiply(a, (q * (1.0 - q))[:, None]).T @ a / a.shape[0]


# The line-search loop of ``detcal.optimizer.minimize`` as it stood before its
# per-iteration costs were cut, kept verbatim (helpers renamed): ``minimize``
# must reproduce its iterates, reports, exceptions and callbacks bit for bit.


def _reference_check_finite(value: float, grad: np.ndarray, x: np.ndarray, where: str) -> None:
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NumericalFailureError(
            f"objective or gradient non-finite at {where} (value={value!r})", iterate=x.copy()
        )


def _reference_newton_direction(h: np.ndarray, g: np.ndarray, x: np.ndarray, iteration: int) -> np.ndarray:
    try:
        d = -np.linalg.solve(h, g)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"singular Newton system at iterate {iteration}", iterate=x.copy()
        ) from exc
    if not np.all(np.isfinite(d)):
        raise NumericalFailureError(f"non-finite Newton step at iterate {iteration}", iterate=x.copy())
    return d


def reference_minimize(
    objective: Objective,
    x0: np.ndarray,
    cfg: OptimizerConfig = OptimizerConfig(),
    callback: Callable[[np.ndarray, float], None] | None = None,
    *,
    hessian: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Minimize a smooth objective from ``x0``; returns the iterate and a report.

    ``hessian``, when given, returns the Hessian at an accepted iterate and
    turns the BFGS direction into the Newton direction. A direction that
    does not descend falls back to steepest descent. ``callback``, when
    given, is invoked with every accepted iterate and its objective value.
    """
    start = time.perf_counter()
    x = np.array(x0, dtype=np.float64).copy()
    f, g = objective(x)
    g = np.asarray(g, dtype=np.float64)
    _reference_check_finite(f, g, x, "the starting point")

    n = x.size
    h_inv = np.eye(n)
    first_update = True
    iterations = 0
    converged = bool(np.max(np.abs(g)) <= cfg.gradient_tolerance) if n else True

    while not converged and iterations < cfg.max_iterations:
        if hessian is None:
            d = -h_inv @ g
        else:
            d = _reference_newton_direction(hessian(x), g, x, iterations)
        gd = float(g @ d)
        if gd >= 0.0 or not np.all(np.isfinite(d)):
            h_inv = np.eye(n)
            d = -g
            gd = float(g @ d)

        step = INITIAL_STEP
        d_inf = float(np.max(np.abs(d)))
        if d_inf * step > MAX_STEP:
            step = MAX_STEP / d_inf
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            f_new, g_new = objective(x_new)
            if np.isfinite(f_new) and f_new <= f + SUFFICIENT_DECREASE * step * gd:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            # Line search exhausted at machine precision; stop with whatever
            # gradient norm remains and report non-convergence if above tol.
            break

        g_new = np.asarray(g_new, dtype=np.float64)
        _reference_check_finite(f_new, g_new, x_new, f"accepted iterate {iterations + 1}")
        s = x_new - x
        y = g_new - g
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if callback is not None:
            callback(x.copy(), f)

        sy = float(s @ y)
        if hessian is None and sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            if first_update:
                # Scale the initial inverse Hessian to the first curvature
                # pair; standard remedy for badly scaled objectives.
                h_inv = (sy / float(y @ y)) * np.eye(n)
                first_update = False
            rho = 1.0 / sy
            hy = h_inv @ y
            h_inv = (
                h_inv
                - rho * (np.outer(s, hy) + np.outer(hy, s))
                + (rho * rho * float(y @ hy) + rho) * np.outer(s, s)
            )
        converged = bool(np.max(np.abs(g)) <= cfg.gradient_tolerance)

    grad_norm = float(np.max(np.abs(g))) if n else 0.0
    report = FitReport(
        final_value=float(f),
        gradient_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        wall_time_s=time.perf_counter() - start,
    )
    return x, report


# The box converters as they stood before each became one row of its array
# form: ``box_from_absolute`` and ``_box_from_relative`` must give their boxes
# and errors, and the array forms their boxes and verdicts.


def reference_box_from_absolute(bbox, width_px: int, height_px: int) -> BoxGeometry:
    """An absolute ``[x, y, w, h]`` top-left pixel box in relative center format, small overhangs clamped."""
    x, y, w, h = (_real(v, "bbox value") for v in bbox)
    if w <= 0 or h <= 0:
        raise ValidationError(f"box has nonpositive width/height: {[x, y, w, h]}")
    x2, y2 = x + w, y + h
    overhang_x = max(0.0, -x, x2 - width_px) / width_px
    overhang_y = max(0.0, -y, y2 - height_px) / height_px
    if overhang_x > EDGE_CLAMP_TOLERANCE or overhang_y > EDGE_CLAMP_TOLERANCE:
        raise ValidationError(
            f"box {[x, y, w, h]} extends {max(overhang_x, overhang_y):.4f} beyond the "
            f"{width_px}x{height_px} image, above the {EDGE_CLAMP_TOLERANCE:.0%} tolerance"
        )
    x, y = max(x, 0.0), max(y, 0.0)
    x2, y2 = min(x2, float(width_px)), min(y2, float(height_px))
    if x2 <= x or y2 <= y:
        raise ValidationError(f"box {[x, y, w, h]} collapses after clamping")
    # As the reader of a matched-sample file clamps it: an edge at the border can convert an ulp past it.
    return BoxGeometry(*_reference_clamp(
        (x + x2) / (2.0 * width_px), (y + y2) / (2.0 * height_px), (x2 - x) / width_px, (y2 - y) / height_px
    ))


def reference_box_from_relative(obj) -> BoxGeometry:
    """The box of a native-format ``{cx, cy, w, h}`` mapping, small overhangs clamped."""
    try:
        cx, cy, w, h = (_real(obj[k], k) for k in ("cx", "cy", "w", "h"))
    except KeyError as exc:
        raise ValidationError(f"box record missing field {exc}") from exc
    if w <= 0 or h <= 0:
        raise ValidationError(f"box has nonpositive width/height: {obj}")
    x1, y1, x2, y2 = cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h
    overhang = max(0.0, -x1, x2 - 1.0, -y1, y2 - 1.0)
    if overhang > EDGE_CLAMP_TOLERANCE:
        raise ValidationError(
            f"box {obj} extends {overhang:.4f} beyond the image, above the "
            f"{EDGE_CLAMP_TOLERANCE:.0%} tolerance"
        )
    return BoxGeometry(*_reference_clamp(cx, cy, w, h))


def _reference_clamp(cx: float, cy: float, w: float, h: float) -> tuple[float, float, float, float]:
    """``(cx, cy, w, h)``, when an edge lies past the image, recomputed from the edges clamped to it."""
    x1, y1, x2, y2 = cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h
    if max(0.0, -x1, x2 - 1.0, -y1, y2 - 1.0) > 0.0:
        x1, y1 = max(x1, 0.0), max(y1, 0.0)
        x2, y2 = min(x2, 1.0), min(y2, 1.0)
        cx, cy, w, h = (x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1
    return cx, cy, w, h


# The per-record loaders as they stood before the loaders checked columns,
# with the type rules of today's constructors: every record is built by the
# checked constructors, one call per record, and the first error raised
# names its record. The loaders must give their records, errors and warnings.


@contextlib.contextmanager
def constructor_calls():
    """Count the runs of the checked record constructors while the block runs.

    Yields a Counter of ``__post_init__`` runs by class name, and of the
    records handed to ``_RecordPolicy.record`` by kind (``"detection
    records"``, ``"image records"``, ...).
    """
    calls = collections.Counter()

    def counted_post_init(self):
        calls[type(self).__name__] += 1
        return post_init[type(self)](self)

    def counted_record(self, context, what, make, rec):
        calls[f"{what} records"] += 1
        return record(self, context, what, make, rec)

    classes = (BoxGeometry, Detection, GroundTruthObject, MatchedSample)
    post_init, record = {cls: cls.__post_init__ for cls in classes}, _RecordPolicy.record
    with contextlib.ExitStack() as stack:
        for cls in classes:
            stack.enter_context(mock.patch.object(cls, "__post_init__", counted_post_init))
        stack.enter_context(mock.patch.object(_RecordPolicy, "record", counted_record))
        yield calls


def _iter_jsonl(path: Path):
    """``(lineno, record)`` of each nonblank line, read and parsed one line at a time."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, _parse_line(path, lineno, line)


def reference_read_matched_samples(path: Path) -> list[MatchedSample]:
    """``read_matched_samples`` record by record."""
    samples: list[MatchedSample] = []
    for lineno, obj in _iter_jsonl(path):
        try:
            det = Detection(
                image_id=obj["image_id"],
                category_id=obj["category_id"],
                score=obj["score"],
                box=reference_box_from_relative(obj["box"]),
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


def reference_native_detections(path: Path, images: dict, on_invalid: str = "fail") -> list[Detection]:
    """The detections of a native file, known to ``images`` when it is not empty, record by record."""
    policy = _RecordPolicy(on_invalid)

    def make(obj):
        if images and obj["image_id"] not in images:
            raise ReferentialIntegrityError(f"unknown image_id {obj['image_id']!r}")
        return Detection(
            image_id=obj["image_id"],
            category_id=obj["category_id"],
            score=obj["score"],
            box=reference_box_from_relative(obj["box"]),
        )

    detections = []
    for lineno, obj in _iter_jsonl(path):
        det = policy.record(f"{path}:{lineno}", "detection", make, obj)
        if det is not None:
            detections.append(det)
    return detections


def reference_native_annotations(path: Path, on_invalid: str = "fail"):
    """``(images, ground truth, categories)`` of a native annotation file, line by line."""
    policy, strict = _RecordPolicy(on_invalid), _RecordPolicy("fail")  # an image record is never skipped

    def make_object(obj):
        return GroundTruthObject(obj["image_id"], obj["category_id"], reference_box_from_relative(obj["box"]),
                                 obj.get("crowd_flag", False))

    def make_image(rec):
        return ImageRecord(rec["image_id"], rec["width_px"], rec["height_px"])

    images, ground_truth, categories = {}, [], {}
    for lineno, obj in _iter_jsonl(path):
        context = f"{path}:{lineno}"
        if "image" in obj:
            image = strict.record(context, "image", make_image, obj["image"])
            if image.image_id in images:
                raise ValidationError(f"{context}: duplicate image record {image.image_id!r}")
            images[image.image_id] = image
        elif "category" in obj:
            try:
                rec = obj["category"]
                cid = rec["id"]
                categories[_category_id(cid)] = str(rec.get("name", cid))
            except KeyError as exc:
                raise ValidationError(f"{context}: category record missing field {exc}") from exc
            except (ValidationError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{context}: invalid category record: {exc}") from exc
        else:
            gt = policy.record(context, "annotation", make_object, obj)
            if gt is not None:
                ground_truth.append(gt)
    return images, ground_truth, categories


def reference_load_coco(det_path: Path, ann_path: Path, on_invalid: str = "fail"):
    """``load_dataset(det_path, ann_path, fmt="coco", on_invalid=on_invalid)`` record by record."""
    policy = _RecordPolicy(on_invalid)
    doc = read_json(ann_path)
    if not isinstance(doc, dict) or "images" not in doc:
        raise ValidationError(f"{ann_path}: COCO annotation file must contain an 'images' array")
    images = {}
    try:
        for rec in doc["images"]:
            image = ImageRecord(rec["id"], rec["width"], rec["height"])
            if image.image_id in images:
                raise ValidationError(f"duplicate image id {image.image_id!r}")
            images[image.image_id] = image
        categories = {}
        for rec in doc.get("categories", []):
            cid = rec["id"]
            categories[_category_id(cid)] = str(rec.get("name", cid))
    except KeyError as exc:
        raise ValidationError(f"{ann_path}: image or category record missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"{ann_path}: invalid image or category record: {exc}") from exc

    def image_of(rec):
        image = images.get(rec["image_id"])
        if image is None:
            raise ReferentialIntegrityError(f"unknown image_id {rec['image_id']!r}")
        return image

    def make_object(rec):
        image = image_of(rec)
        return GroundTruthObject(rec["image_id"], rec["category_id"],
                                 reference_box_from_absolute(rec["bbox"], image.width_px, image.height_px),
                                 rec.get("iscrowd", 0))

    def make_detection(rec):
        image = image_of(rec)
        return Detection(rec["image_id"], rec["category_id"], rec["score"],
                         reference_box_from_absolute(rec["bbox"], image.width_px, image.height_px))

    annotations = doc.get("annotations", [])
    if not isinstance(annotations, list):
        raise ValidationError(f"{ann_path}: COCO 'annotations' must be an array")
    ground_truth = [policy.record(f"{ann_path}: annotation #{i}", "annotation", make_object, rec)
                    for i, rec in enumerate(annotations)]
    if not images:
        raise ValidationError(f"{det_path}: COCO detections need image dimensions from the annotation file")
    results = read_json(det_path)
    if isinstance(results, dict):
        results = results.get("annotations", results.get("results"))
    if not isinstance(results, list):
        raise ValidationError(f"{det_path}: COCO detection file must be a results array")
    detections = [policy.record(f"{det_path}: result #{i}", "result", make_detection, rec)
                  for i, rec in enumerate(results)]
    detections = [d for d in detections if d is not None]
    ground_truth = [g for g in ground_truth if g is not None]
    if not categories:
        categories = {cid: str(cid) for cid in sorted({r.category_id for r in detections + ground_truth})}
    for det in detections:
        if det.category_id not in categories:
            raise ReferentialIntegrityError(
                f"{det_path}: detection category {det.category_id} missing "
                f"from the category table of {ann_path}"
            )
    if policy.skipped:
        logging.getLogger("detcal.detections").warning("skipped %d invalid records", policy.skipped)
    return detections, ground_truth, categories
