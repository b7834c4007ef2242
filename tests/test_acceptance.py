"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria with a stated runtime budget assert it.
"""

import itertools
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import detcal
from detcal import calibrators, synth
from detcal.calibrators import (
    BetaDepParams,
    CalibrationModel,
    apply,
    fit,
    fit_hist_binning,
    fit_parametric,
    identity_theta,
    nll_objective,
    theta_size,
)
from detcal.detections import BoxGeometry, Detection, GroundTruthObject
from detcal.errors import EmptyMetricError
from detcal.features import FeatureSet, build_feature_matrix, labels
from detcal.harness import ProtocolConfig, run_protocol
from detcal.matching import iou, match_detections
from detcal.metrics import BinningSpec, compute_d_ece
from detcal.optimizer import check_gradient
from oracles import (
    brute_force_dece,
    classification_ece,
    generalized_beta_log_density,
    log_multivariate_beta,
    make_sample,
    max_matching_count,
    random_matched_samples,
)

FULL_MEMBERS = ("confidence", "cx", "cy", "w", "h")


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {status} {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _with_scores(samples, scores):
    return [
        replace(s, detection=replace(s.detection, score=float(q)))
        for s, q in zip(samples, scores)
    ]


def test_01_dece_oracle_equivalence():
    rng = np.random.default_rng(20250801)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(5000, 10001)) if trial % 10 == 0 else int(rng.integers(50, 2001))
        samples = random_matched_samples(rng, n)
        k = int(rng.integers(1, 6))
        dims = FULL_MEMBERS[:k]
        high = {1: 10, 2: 10, 3: 10, 4: 10, 5: 6}[k]
        counts = tuple(int(c) for c in rng.integers(1, high + 1, k))
        assert int(np.prod(counts)) <= 10**4
        min_samples = int(rng.choice([0, 1, 5, 8]))
        renormalize = bool(trial % 2)
        spec = BinningSpec(dims=dims, counts=counts, min_samples=min_samples)
        expected = brute_force_dece(samples, dims, counts, min_samples, renormalize)
        if expected is None:
            with pytest.raises(EmptyMetricError):
                compute_d_ece(samples, spec, renormalize=renormalize)
            continue
        value, _ = compute_d_ece(samples, spec, renormalize=renormalize)
        worst = max(worst, abs(value - expected))
    elapsed = time.monotonic() - start
    _report(
        1,
        "compute_d_ece matches nested-loop reference on 200 random datasets",
        worst <= 1e-12 and elapsed < 60.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_classification_ece_reduction():
    rng = np.random.default_rng(2)
    exact = True
    for _ in range(50):
        samples = random_matched_samples(rng, int(rng.integers(30, 1500)))
        n_bins = int(rng.integers(2, 40))
        spec = BinningSpec(dims=("confidence",), counts=(n_bins,), min_samples=0)
        value, _ = compute_d_ece(samples, spec)
        reference = classification_ece(
            [s.detection.score for s in samples], [s.matched for s in samples], n_bins
        )
        exact = exact and (value == reference)
    _report(2, "confidence-only D-ECE equals classification ECE exactly on 50 datasets", exact)


def test_03_parameter_counts():
    samples = synth.generate(synth.make_scenario("perfectly_calibrated", 20000, seed=4))
    formulas = {
        "logistic_indep": lambda k: k + 1,
        "beta_indep": lambda k: 2 * k + 1,
        "logistic_dep": lambda k: 2 * (k * k + k) + 1,
        "beta_dep": lambda k: 4 * (k + 1) + 1,
    }
    ok = True
    details = []
    for k in (1, 3, 5):
        members = FULL_MEMBERS[:k]
        for method, formula in formulas.items():
            model = fit_parametric(method, samples, members)
            if model.n_params != formula(k):
                ok = False
                details.append(f"{method}@K={k}: {model.n_params} != {formula(k)}")
    _report(
        3,
        "fitted models report K+1 / 2K+1 / 2(K^2+K)+1 / 4(K+1)+1 parameters for K in {1,3,5}",
        ok,
        "; ".join(details),
    )


def test_04_gradient_correctness():
    rng = np.random.default_rng(44)
    start = time.monotonic()
    samples = random_matched_samples(rng, 200, extreme_scores=False)
    worst = 0.0
    for method in calibrators.PARAMETRIC_METHODS:
        encoding = "logit" if method.startswith("logistic") else "probability"
        for k in (1, 3, 5):
            fs = FeatureSet(members=FULL_MEMBERS[:k], confidence_encoding=encoding)
            x = build_feature_matrix(samples, fs)
            m = labels(samples)
            objective = nll_objective(method, x, m)
            for _ in range(100):
                theta = identity_theta(method, k) + rng.uniform(
                    -1.5, 1.5, theta_size(method, k)
                )
                worst = max(worst, check_gradient(objective, theta, 1e-5))
    elapsed = time.monotonic() - start
    _report(
        4,
        "analytic NLL gradients pass finite differences at 100 points per (method, K)",
        worst < 1e-4 and elapsed < 120.0,
        f"max relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_05_generative_recovery():
    rng = np.random.default_rng(55)
    n = 100000
    w_true, c_true = 1.6, -0.5
    p_raw = rng.uniform(0.05, 0.95, n)
    x = np.log(p_raw / (1.0 - p_raw))
    p_true = 1.0 / (1.0 + np.exp(-(w_true * x + c_true)))
    m = rng.random(n) < p_true
    samples = [
        make_sample(p_raw[i], bool(m[i]), gt_index=i) for i in range(n)
    ]
    model = fit_parametric("logistic_indep", samples, ("confidence",))
    w_hat, c_hat = float(model.params.w[0]), model.params.c

    design = np.column_stack([x, np.ones(n)])
    g = 1.0 / (1.0 + np.exp(-(w_hat * x + c_hat)))
    fisher = (design * (g * (1.0 - g))[:, None]).T @ design
    se = np.sqrt(np.diag(np.linalg.inv(fisher)))
    dev_w = abs(w_hat - w_true) / se[0]
    dev_c = abs(c_hat - c_true) / se[1]

    grid = np.arange(0.01, 1.0, 0.01)
    gx = np.log(grid / (1.0 - grid))
    fitted = 1.0 / (1.0 + np.exp(-(w_hat * gx + c_hat)))
    generative = 1.0 / (1.0 + np.exp(-(w_true * gx + c_true)))
    map_dev = float(np.max(np.abs(fitted - generative)))
    _report(
        5,
        "Platt-model recovery within 3 standard errors and 0.02 map deviation",
        dev_w <= 3.0 and dev_c <= 3.0 and map_dev < 0.02,
        f"w dev {dev_w:.2f} se, c dev {dev_c:.2f} se, map dev {map_dev:.4f}",
    )


def test_06_perfect_calibration_fixed_point():
    samples = synth.generate(synth.make_scenario("perfectly_calibrated", 100000, seed=11))
    spec = BinningSpec(dims=("confidence",), counts=(20,), min_samples=0)
    baseline, _ = compute_d_ece(samples, spec)
    deltas = {}
    for method in calibrators.METHODS:
        model = fit(method, samples, ("confidence",))
        value, _ = compute_d_ece(_with_scores(samples, apply(model, samples)), spec)
        deltas[method] = value - baseline
    worst = max(deltas.values())
    _report(
        6,
        "perfectly calibrated data is a fixed point for every method",
        baseline < 0.01 and worst <= 0.005,
        f"baseline {baseline:.4f}, worst delta {worst:+.4f}",
    )


def test_07_fig3_ordering():
    start = time.monotonic()
    samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 100000, seed=2025))
    common = dict(repetitions=20, seed=11)
    ece_table = run_protocol(
        samples, ProtocolConfig(methods=("lc",), feature_sets=("conf",), **common)
    )
    base = ece_table.baseline["conf"]
    post = ece_table.cells[("logistic_indep", "conf")]
    reduction = 1.0 - post.mean / base.mean

    k1_table = run_protocol(
        samples,
        ProtocolConfig(
            methods=("lc",), feature_sets=("conf",), eval_feature_sets=("conf+xy",), **common
        ),
    )
    k1_3d = k1_table.cells[("logistic_indep", "conf")]
    dep_table = run_protocol(
        samples, ProtocolConfig(methods=("lc-dep",), feature_sets=("conf+xy",), **common)
    )
    dep_3d = dep_table.cells[("logistic_dep", "conf+xy")]
    ratio = k1_3d.mean / dep_3d.mean
    elapsed = time.monotonic() - start
    detail = (
        f"global ECE {100 * base.mean:.2f}±{100 * base.std:.2f}% -> "
        f"{100 * post.mean:.2f}±{100 * post.std:.2f}% (cut {100 * reduction:.0f}%); "
        f"3D D-ECE conf-only {100 * k1_3d.mean:.2f}±{100 * k1_3d.std:.2f}% vs "
        f"dependent {100 * dep_3d.mean:.2f}±{100 * dep_3d.std:.2f}% (x{ratio:.2f}); "
        f"{elapsed:.0f}s"
    )
    _report(
        7,
        "confidence-only map cuts global ECE >= 70% yet stays >= 1.5x the dependent 3D D-ECE",
        reduction >= 0.70 and ratio >= 1.5 and elapsed < 600.0,
        detail,
    )


def test_08_hist_binning_training_set_property():
    samples = synth.generate(synth.make_scenario("perfectly_calibrated", 100000, seed=8))
    model = fit_hist_binning(samples, ("confidence",), 15)
    q1 = apply(model, samples)
    calibrated = _with_scores(samples, q1)
    refit = fit_hist_binning(calibrated, ("confidence",), 15)
    q2 = apply(refit, calibrated)
    idempotent = np.array_equal(q1, q2)
    spec = BinningSpec(dims=("confidence",), counts=(15,), min_samples=0)
    train_dece, _ = compute_d_ece(calibrated, spec)
    _report(
        8,
        "histogram binning is idempotent on its own calibrated training output",
        idempotent and train_dece < 1e-10,
        f"train D-ECE at calibration binning {train_dece:.2e}",
    )


def test_09_generalized_beta_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 6))
        alpha_pos = rng.uniform(0.2, 5.0, k + 1)
        beta_pos = rng.uniform(0.2, 5.0, k + 1)
        alpha_neg = rng.uniform(0.2, 5.0, k + 1)
        beta_neg = rng.uniform(0.2, 5.0, k + 1)
        c_tied = log_multivariate_beta(alpha_neg) - log_multivariate_beta(alpha_pos)
        model = CalibrationModel(
            "beta_dep",
            FeatureSet(members=FULL_MEMBERS[:k]),
            BetaDepParams(
                alpha_pos=alpha_pos,
                beta_pos=beta_pos,
                alpha_neg=alpha_neg,
                beta_neg=beta_neg,
                c=c_tied,
            ),
        )
        s = rng.uniform(0.05, 0.95, k)
        direct = generalized_beta_log_density(
            s, alpha_pos, beta_pos
        ) - generalized_beta_log_density(s, alpha_neg, beta_neg)
        worst = max(worst, abs(calibrators.loglik_ratio(model, s) - direct))
    _report(
        9,
        "dependent-beta log-likelihood ratio matches the direct density ratio",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


def _enumeration_boxes():
    return [
        BoxGeometry(0.30, 0.30, 0.20, 0.20),
        BoxGeometry(0.34, 0.30, 0.20, 0.20),
        BoxGeometry(0.42, 0.30, 0.20, 0.20),
        BoxGeometry(0.70, 0.70, 0.20, 0.20),
    ]


def test_10_matching_invariants():
    # Part 1: single ground truth, up to three detections over a box pool;
    # greedy is provably optimal there, so the brute-force maximum matching
    # must agree on every enumerable instance.
    pool = _enumeration_boxes()
    gt_box = pool[0]
    truth = [GroundTruthObject(0, 1, gt_box)]
    agree = True
    instances = 0
    for n_det in (1, 2, 3):
        for combo in itertools.product(range(len(pool)), repeat=n_det):
            for scores in ([0.9, 0.6, 0.3][:n_det], [0.5] * n_det):
                detections = [Detection(0, 1, s, pool[j]) for s, j in zip(scores, combo)]
                for threshold in (0.3, 0.6, 0.9):
                    matrix = np.array(
                        [[iou(d.box, g.box) for g in truth] for d in detections]
                    )
                    expected = max_matching_count(matrix, threshold)
                    got = sum(
                        s.matched for s in match_detections(detections, truth, threshold)
                    )
                    agree = agree and (got == expected)
                    instances += 1

    # Part 2: injectivity and threshold monotonicity on random instances.
    rng = np.random.default_rng(10)
    injective = True
    monotone = True
    for _ in range(1000):
        n_det = int(rng.integers(1, 5))
        n_gt = int(rng.integers(0, 5))

        def rand_box():
            cx, cy = rng.uniform(0.25, 0.75, 2)
            w, h = rng.uniform(0.05, 0.4, 2)
            return BoxGeometry(cx, cy, min(w, 2 * min(cx, 1 - cx)), min(h, 2 * min(cy, 1 - cy)))

        detections = [Detection(0, 1, float(rng.random()), rand_box()) for _ in range(n_det)]
        truth = [GroundTruthObject(0, 1, rand_box()) for _ in range(n_gt)]
        counts = []
        for threshold in (0.2, 0.45, 0.7):
            matched = match_detections(detections, truth, threshold)
            claimed = [s.gt_index for s in matched if s.matched]
            injective = injective and len(claimed) == len(set(claimed))
            counts.append(sum(s.matched for s in matched))
        monotone = monotone and counts == sorted(counts, reverse=True)
    _report(
        10,
        "greedy matching is optimal on single-GT enumerations, injective and threshold-monotone",
        agree and injective and monotone,
        f"{instances} enumerated instances, 1000 random instances",
    )


def test_11_pipeline_determinism(tmp_path):
    # The children import detcal from the same source tree as this process.
    src = str(Path(detcal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_pipeline(workdir: Path, cold: bool) -> dict[str, bytes]:
        """The pipeline's outputs; a cold run deletes every sidecar before each step, so that no read is served
        from one."""
        workdir.mkdir()
        base = [sys.executable, "-m", "detcal.cli"]
        matched = workdir / "matched.jsonl"
        model = workdir / "model.json"
        calibrated = workdir / "calibrated.jsonl"
        grid = workdir / "heatmap.csv"
        steps = [
            base + ["synth", "--scenario", "fig3_boundary_decay", "--n", "20000",
                    "--seed", "5", "--out", str(matched)],
            base + ["fit", "--in", str(matched), "--method", "lc-dep",
                    "--features", "conf+xy", "--out", str(model)],
            base + ["apply", "--model", str(model), "--in", str(matched),
                    "--out", str(calibrated)],
            base + ["heatmap", "--in", str(calibrated), "--features", "conf+xy",
                    "--axes", "cx,cy", "--out", str(grid)],
            base + ["eval", "--in", str(calibrated), "--features", "conf+xy"],
        ]
        for step in steps:
            if cold:
                for sidecar in workdir.glob(".*.detcal-columns"):
                    sidecar.unlink()
            evaluated = subprocess.run(step, check=True, capture_output=True, env=env)
        outputs = {p.name: p.read_bytes() for p in (matched, model, calibrated, grid)}
        outputs["eval.stdout"] = evaluated.stdout
        outputs["sidecars"] = sorted(p.name for p in workdir.glob(".*.detcal-columns"))
        return outputs

    warm = run_pipeline(tmp_path / "run1", cold=False)
    cold = run_pipeline(tmp_path / "run2", cold=True)
    served = warm.pop("sidecars") == [".calibrated.jsonl.detcal-columns", ".matched.jsonl.detcal-columns"]
    cold.pop("sidecars")
    same = {name: warm[name] == cold[name] for name in warm}
    _report(
        11,
        "two seeded CLI pipeline runs, one reading from sidecars, produce byte-identical outputs",
        served and all(same.values()),
        ", ".join([f"{k}:{'=' if v else '!='}" for k, v in same.items()] + [f"sidecars:{served}"]),
    )
