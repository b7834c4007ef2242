"""Command-line pipeline: synth/match -> fit -> apply -> eval/heatmap -> protocol.

All diagnostics go to standard error; data goes to files or standard output.
Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import calibrators, harness, metrics, synth
from .detections import load_dataset
from .errors import DataError, DetcalError, EmptyMetricError, UsageError
from .features import DEFAULT_CLIP, feature_set
from .harness import ProtocolConfig, render_table, run_protocol, run_protocol_with_matching
from .matching import match_detections, read_matched_samples, write_matched_samples
from .metrics import BinningSpec, compute_d_ece, default_eval_spec, heatmap, heatmap_axes
from .optimizer import OptimizerConfig

logger = logging.getLogger("detcal")


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_bins(text: str | None, k: int) -> tuple[int, ...] | None:
    """Per-dimension bin counts from ``--bins``, or None to take the library's defaults."""
    if text is None:
        return None
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--bins expects integers, got {text!r}") from None
    if len(parts) == 1:
        return parts * k
    if len(parts) != k:
        raise UsageError(f"--bins lists {len(parts)} counts for K={k} dimensions")
    return parts


def _parse_ious(text: str | None) -> tuple[float, ...]:
    """IoU thresholds from ``--ious``, as floats; the protocol's configuration checks their range."""
    thresholds = tuple(text.split(",")) if text else ()
    try:
        return tuple(map(float, thresholds))
    except ValueError:
        raise UsageError(f"IoU thresholds must be numbers, got {thresholds!r}") from None


def _out_path(args, path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(args.out_dir) / p


def _cmd_match(args) -> int:
    detections, ground_truth, _ = load_dataset(
        args.detections, args.annotations, fmt=args.format, on_invalid=args.on_invalid
    )
    samples = match_detections(
        detections, ground_truth, args.iou, exclude_crowd=not args.include_crowd
    )
    write_matched_samples(samples, _out_path(args, args.out))
    matched = samples.matched.sum()
    logger.info("matched %d of %d detections at IoU %.2f", matched, len(samples), args.iou)
    return 0


def _cmd_synth(args) -> int:
    spec = synth.make_scenario(args.scenario, args.n, args.seed)
    samples = synth.generate(spec)
    write_matched_samples(samples, _out_path(args, args.out))
    logger.info("generated %d samples from scenario %s", len(samples), args.scenario)
    return 0


def _read_nonempty(path: str, empty_message: str):
    """Read a matched-sample file; an empty one is a data error naming the file."""
    samples = read_matched_samples(path)
    if not len(samples):
        raise DataError(f"{path}: {empty_message}")
    return samples


@contextmanager
def _binning(path: str):
    """Name the input file in an error for bins that all fall below ``--min-samples``."""
    try:
        yield
    except EmptyMetricError as exc:
        raise EmptyMetricError(f"{path}: {exc}", exc.bin_histogram) from exc


def _select_category(samples, args):
    if args.pooled:
        return samples, None
    if args.category is not None:
        chosen = np.flatnonzero(samples.category_id == args.category)
        if not chosen.size:
            raise DataError(f"{args.input}: no samples with category {args.category}")
        return samples.take(chosen), args.category
    categories = np.unique(samples.category_id).tolist()
    if len(categories) > 1:
        raise DataError(
            f"input holds categories {categories}; fit per class with --category "
            f"or pool them with --pooled"
        )
    return samples, categories[0]


def _cmd_fit(args) -> int:
    samples = _read_nonempty(args.input, "no samples to fit")
    samples, category_id = _select_category(samples, args)
    method = harness.canonical_method(args.method)
    if method == "identity":
        raise UsageError("identity is a harness diagnostic, not a fittable method")
    members = feature_set(args.features).members
    bin_counts = None
    if method == "hist_binning":
        bin_counts = _parse_bins(args.bins, len(members))
    elif args.bins is not None:
        logger.warning("--bins is ignored for parametric method %s", args.method)
    config = OptimizerConfig(max_iterations=args.max_iter, gradient_tolerance=args.tol)
    model = calibrators.fit(
        method,
        samples,
        members,
        bin_counts=bin_counts,
        config=config,
        ridge=args.ridge,
        eps=args.eps,
        category_id=category_id,
    )
    calibrators.save_model(model, _out_path(args, args.out))
    meta = model.fit_metadata
    logger.info(
        "fitted %s on %d samples (%d parameters, final NLL %s)",
        method,
        meta.n_samples,
        model.n_params,
        "n/a" if meta.final_nll is None else f"{meta.final_nll:.6f}",
    )
    return 0


def _cmd_apply(args) -> int:
    model = calibrators.load_model(args.model)
    samples = read_matched_samples(args.input)
    if model.category_id is not None:
        foreign = sorted(set(np.unique(samples.category_id).tolist()) - {model.category_id})
        if foreign:
            raise DataError(
                f"model is fitted for category {model.category_id} but the input "
                f"holds categories {foreign}; filter the input or fit with --pooled"
            )
    scores = calibrators.apply(model, samples, args.eps)
    write_matched_samples(samples, _out_path(args, args.out), scores=scores)
    return 0


def _eval_binning(args, members: tuple[str, ...]) -> BinningSpec:
    counts = _parse_bins(args.bins, len(members))
    if counts is None:
        return default_eval_spec(members, args.min_samples)
    return BinningSpec(dims=members, counts=counts, min_samples=args.min_samples)


def _cmd_eval(args) -> int:
    spec = _eval_binning(args, feature_set(args.features).members)
    samples = _read_nonempty(args.input, "cannot bin an empty sample list")
    with _binning(args.input):
        value, stats = compute_d_ece(samples, spec, renormalize=not args.no_renormalize)
    logger.info(
        "%d bins retained, %d samples of %d",
        len(stats.bin_counts),
        stats.retained_samples,
        stats.total_samples,
    )
    print(f"D-ECE = {100.0 * value:.3f}%")
    return 0


def _cmd_heatmap(args) -> int:
    members = feature_set(args.features).members
    axes = tuple(args.axes.split(","))
    if len(axes) != 2:
        raise UsageError(f"--axes expects two comma-separated dimensions, got {args.axes!r}")
    spec = _eval_binning(args, members)
    heatmap_axes(axes, spec)
    samples = _read_nonempty(args.input, "cannot bin an empty sample list")
    with _binning(args.input):
        grid = heatmap(samples, spec, axes)
    with (open(_out_path(args, args.out), "w", encoding="utf-8", newline="") if args.out
          else nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis1_bin", "axis2_bin", "d_ece_contrib", "count", "precision", "confidence"])
        writer.writerows(grid.rows())
    return 0


def _cmd_protocol(args) -> int:
    methods = tuple(args.methods.split(","))
    feature_sets = tuple(args.features.split(","))
    eval_sets = tuple(args.eval_features.split(",")) if args.eval_features else None
    cfg = ProtocolConfig(
        methods=methods,
        feature_sets=feature_sets,
        eval_feature_sets=eval_sets,
        train_fraction=args.train_frac,
        repetitions=args.reps,
        seed=args.seed,
        min_samples=args.min_samples,
        iou_thresholds=_parse_ious(args.ious),
        eps=args.eps,
    )
    if args.input:
        samples = _read_nonempty(args.input, "protocol needs a nonempty sample list")
        tables = [run_protocol(samples, cfg)]
    elif args.detections and args.annotations:
        detections, ground_truth, _ = load_dataset(args.detections, args.annotations)
        tables = run_protocol_with_matching(detections, ground_truth, cfg)
    else:
        raise UsageError("protocol needs --in, or --detections plus --annotations")
    rendered = "".join(render_table(t, args.format) for t in tables)
    with open(_out_path(args, args.out), "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        fh.write(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="detcal", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0, help="-v info, -vv debug")
    parser.add_argument("--out-dir", default=".", help="directory for relative output paths")
    parser.add_argument("--eps", type=float, default=DEFAULT_CLIP, help="feature clip value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", parents=[], help="assign detections to ground truth by IoU")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--iou", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="auto", choices=["auto", "native", "coco"])
    p.add_argument("--on-invalid", default="fail", choices=["fail", "skip"])
    p.add_argument("--include-crowd", action="store_true")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("synth", help="generate a synthetic matched-sample dataset")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a calibration model on matched samples")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--method", required=True, help="hb|lc|lc-dep|bc|bc-dep")
    p.add_argument("--features", required=True, help="conf|conf+xy|conf+wh|full")
    p.add_argument("--bins", default=None, help="per-dimension bin counts (histogram binning)")
    p.add_argument("--out", required=True)
    p.add_argument("--max-iter", type=int, default=2000,
                   help="solver step budget: Newton steps for lc, lc-dep and bc, BFGS steps for bc-dep")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--ridge", type=float, default=calibrators.DEFAULT_RIDGE)
    p.add_argument("--pooled", action="store_true", help="one class-agnostic model")
    p.add_argument("--category", type=int, default=None, help="fit this category only")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("apply", help="replace scores with calibrated confidences")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("eval", help="compute the D-ECE of a matched/calibrated file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--features", required=True, help="conf|conf+xy|conf+wh|full")
    p.add_argument("--bins", default=None, help="comma-separated per-dimension bin counts")
    p.add_argument("--min-samples", type=int, default=metrics.DEFAULT_MIN_SAMPLES)
    p.add_argument("--no-renormalize", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("heatmap", help="marginalized calibration-error grid as CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--bins", default=None)
    p.add_argument("--axes", required=True, help="two dimensions, e.g. cx,cy")
    p.add_argument("--min-samples", type=int, default=metrics.DEFAULT_MIN_SAMPLES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("protocol", help="repeated-split benchmark over methods and features")
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--detections", default=None)
    p.add_argument("--annotations", default=None)
    p.add_argument("--ious", default=None, help="IoU thresholds when matching here")
    p.add_argument("--methods", default="hb,lc,lc-dep,bc,bc-dep")
    p.add_argument("--features", default="conf,conf+xy,conf+wh,full")
    p.add_argument("--eval-features", default=None, help="per-column evaluation override")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-samples", type=int, default=metrics.DEFAULT_MIN_SAMPLES)
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_protocol)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use: a parse leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)  # basicConfig sets a level only once per process
    try:
        return args.func(args)
    except DetcalError as exc:
        logger.error("%s", exc)
        return exc.exit_code
    except OSError as exc:
        logger.error("%s", exc)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
