import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcal import calibrators, synth
from detcal.calibrators import (
    BetaDepParams,
    BetaIndepParams,
    CalibrationModel,
    FitMetadata,
    HistBinningParams,
    LogisticDepParams,
    LogisticIndepParams,
    apply,
    fit,
    fit_hist_binning,
    fit_parametric,
    identity_theta,
    load_model,
    loglik_ratio,
    model_from_json,
    model_to_json,
    nll_objective,
    pack_params,
    save_model,
    theta_size,
    unpack_params,
)
from detcal.calibrators import (
    _llr_beta_dep,
    _llr_beta_indep,
    _llr_logistic_dep,
    _llr_logistic_indep,
    _logistic_dep_params,
    _nll_and_residual,
    sigmoid,
)
from detcal.errors import (
    ConvergenceError,
    DegenerateDataError,
    NumericalFailureError,
    UnsupportedOperationError,
    UsageError,
    ValidationError,
)
from detcal.features import FeatureSet, build_feature_matrix, labels
from detcal.optimizer import OptimizerConfig, check_gradient, minimize
from oracles import (
    generalized_beta_log_density,
    log_multivariate_beta,
    make_sample,
    random_matched_samples,
    reference_gauss_newton,
)
from strategies import JSON_VALUES


def logit_fs(members=("confidence",)):
    return FeatureSet(members=members, confidence_encoding="logit")


def prob_fs(members=("confidence",)):
    return FeatureSet(members=members, confidence_encoding="probability")


def four_sample_dataset():
    return [
        make_sample(0.9, True),
        make_sample(0.9, False),
        make_sample(0.1, False),
        make_sample(0.1, False),
    ]


class TestLogLikRatio:
    def test_zero_parameters_give_zero(self):
        model = CalibrationModel(
            "logistic_indep", logit_fs(), LogisticIndepParams(w=np.zeros(1), c=0.0)
        )
        assert loglik_ratio(model, np.array([3.7])) == 0.0

    def test_unit_weight_is_identity_calibration(self):
        model = CalibrationModel(
            "logistic_indep", logit_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
        )
        for p in (0.2, 0.5, 0.9):
            z = math.log(p / (1 - p))
            assert loglik_ratio(model, np.array([z])) == pytest.approx(z, abs=1e-15)
        samples = [make_sample(p, True) for p in (0.2, 0.5, 0.9)]
        q = apply(model, samples)
        assert np.max(np.abs(q - [0.2, 0.5, 0.9])) < 1e-12

    def test_beta_indep_symmetric_point(self):
        model = CalibrationModel(
            "beta_indep", prob_fs(), BetaIndepParams(a=np.ones(1), b=np.ones(1), c=0.0)
        )
        assert loglik_ratio(model, np.array([0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_hist_binning_unsupported(self):
        model = fit_hist_binning(four_sample_dataset(), ("confidence",), 2)
        with pytest.raises(UnsupportedOperationError):
            loglik_ratio(model, np.array([0.5]))

    def test_dimension_mismatch(self):
        model = CalibrationModel(
            "logistic_indep", logit_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
        )
        with pytest.raises(UsageError):
            loglik_ratio(model, np.array([0.5, 0.5]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        params = LogisticDepParams(
            mu_pos=rng.normal(size=3),
            mu_neg=rng.normal(size=3),
            vinv_pos=rng.normal(size=(3, 3)),
            vinv_neg=rng.normal(size=(3, 3)),
            c=0.3,
        )
        model = CalibrationModel("logistic_dep", logit_fs(("confidence", "cx", "cy")), params)
        batch = rng.normal(size=(10, 3))
        z = loglik_ratio(model, batch)
        assert z.shape == (10,)
        for i in range(10):
            assert loglik_ratio(model, batch[i]) == pytest.approx(float(z[i]), abs=1e-12)


class TestApply:
    def test_sigmoid_of_zero(self):
        model = CalibrationModel(
            "logistic_indep", logit_fs(), LogisticIndepParams(w=np.zeros(1), c=0.0)
        )
        q = apply(model, [make_sample(0.3, True)])
        assert q[0] == 0.5

    def test_hist_binning_returns_stored_precision(self):
        samples = [make_sample(0.9, True), make_sample(0.9, True), make_sample(0.1, False)]
        model = fit_hist_binning(samples, ("confidence",), 2)
        q = apply(model, [make_sample(0.85, False)])
        assert q[0] == 1.0

    def test_logistic_dep_symmetric_classes_give_half(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=3)
        vinv = rng.normal(size=(3, 3))
        params = LogisticDepParams(mu_pos=mu, mu_neg=mu, vinv_pos=vinv, vinv_neg=vinv, c=0.0)
        model = CalibrationModel("logistic_dep", logit_fs(("confidence", "cx", "cy")), params)
        samples = random_matched_samples(rng, 50)
        q = apply(model, samples)
        assert np.max(np.abs(q - 0.5)) < 1e-12

    def test_output_range_for_all_methods(self):
        samples = synth.generate(synth.make_scenario("uniform_overconfident", 10000, seed=2))
        probe = random_matched_samples(np.random.default_rng(3), 100)
        for method in calibrators.METHODS:
            model = fit(method, samples, ("confidence", "cx", "cy"))
            q = apply(model, probe)
            assert q.shape == (100,)
            assert np.all((q >= 0.0) & (q <= 1.0))


class TestParameterCounts:
    @pytest.mark.parametrize("k,members", [
        (1, ("confidence",)),
        (3, ("confidence", "cx", "cy")),
        (5, ("confidence", "cx", "cy", "w", "h")),
    ])
    def test_formulas(self, k, members):
        samples = synth.generate(synth.make_scenario("perfectly_calibrated", 20000, seed=4))
        expected = {
            "logistic_indep": k + 1,
            "beta_indep": 2 * k + 1,
            "logistic_dep": 2 * (k * k + k) + 1,
            "beta_dep": 4 * (k + 1) + 1,
        }
        for method, count in expected.items():
            model = fit_parametric(method, samples, members)
            assert model.n_params == count
            assert theta_size(method, k) == count
            assert pack_params(method, model.params).size == count

    def test_hist_binning_table_size(self):
        samples = random_matched_samples(np.random.default_rng(5), 200)
        model = fit_hist_binning(samples, ("confidence", "cx", "cy"), (3, 4, 5))
        assert model.n_params == 60


class TestPackUnpack:
    @pytest.mark.parametrize("method", calibrators.PARAMETRIC_METHODS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_round_trip(self, method, k):
        rng = np.random.default_rng(6)
        theta = identity_theta(method, k) + rng.uniform(-0.5, 0.5, theta_size(method, k))
        params = unpack_params(method, theta, k)
        theta2 = pack_params(method, params)
        assert np.allclose(theta, theta2, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(UsageError):
            unpack_params("logistic_indep", np.zeros(5), 1)


class TestDependentReducesToIndependent:
    def test_diagonal_equal_means_match_logistic_indep(self):
        k = 3
        d = np.array([1.3, 0.7, 2.0])
        mu_shared = np.array([0.0, 0.4, -0.2])
        delta = 0.8  # confidence-dimension mean separation
        mu_pos = mu_shared.copy()
        mu_neg = mu_shared.copy()
        mu_pos[0] += delta / 2
        mu_neg[0] -= delta / 2
        vinv = np.diag(np.sqrt(d))
        c = 0.25
        dep = CalibrationModel(
            "logistic_dep",
            logit_fs(("confidence", "cx", "cy")),
            LogisticDepParams(mu_pos=mu_pos, mu_neg=mu_neg, vinv_pos=vinv, vinv_neg=vinv, c=c),
        )
        # z = sum_k d_k (mu+_k - mu-_k) s_k + 0.5 sum_k d_k (mu-_k^2 - mu+_k^2) + c
        w_eff = d * (mu_pos - mu_neg)
        c_eff = 0.5 * float(d @ (mu_neg**2 - mu_pos**2)) + c
        indep = CalibrationModel(
            "logistic_indep",
            logit_fs(("confidence", "cx", "cy")),
            LogisticIndepParams(w=w_eff, c=c_eff),
        )
        rng = np.random.default_rng(7)
        probe = random_matched_samples(rng, 200)
        assert np.max(np.abs(apply(dep, probe) - apply(indep, probe))) < 1e-9


class TestLogisticDepNewtonFit:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("spectrum", ["positive", "negative", "mixed", "zero"])
    def test_quadratic_form_maps_to_normal_ratio(self, k, spectrum):
        rng = np.random.default_rng(30 + k)
        v, _ = np.linalg.qr(rng.normal(size=(k, k)))
        lam = {
            "positive": rng.uniform(0.1, 3.0, k),
            "negative": -rng.uniform(0.1, 3.0, k),
            "mixed": rng.uniform(-3.0, 3.0, k),
            "zero": np.where(np.arange(k) % 2 == 0, 0.0, rng.uniform(-3.0, 3.0, k)),
        }[spectrum]
        q = (v * lam) @ v.T
        q = 0.5 * (q + q.T)
        b = rng.normal(scale=2.0, size=k)
        c0 = float(rng.normal())
        params = _logistic_dep_params(q, b, c0)
        assert np.array_equal(params.mu_neg, np.zeros(k))
        x = rng.normal(scale=3.0, size=(200, k))
        expected = np.einsum("ni,ij,nj->n", x, q, x) + x @ b + c0
        got = _llr_logistic_dep(params, x)
        assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, float(np.max(np.abs(expected))))

    def test_generative_recovery_of_two_gaussians(self):
        # Positives and negatives drawn from two normals over (logit score,
        # cx, cy): the true log-likelihood ratio is a known quadratic form.
        rng = np.random.default_rng(57)
        n, prior = 60000, 0.4
        mu = {True: np.array([1.0, 0.5, 0.45]), False: np.array([-0.5, 0.45, 0.55])}
        cov = {
            True: np.array([[1.0, 0.02, 0.0], [0.02, 0.006, 0.001], [0.0, 0.001, 0.004]]),
            False: np.array([[1.5, -0.03, 0.01], [-0.03, 0.01, 0.0], [0.01, 0.0, 0.008]]),
        }
        matched = rng.random(n) < prior
        x = np.where(
            matched[:, None],
            rng.multivariate_normal(mu[True], cov[True], n),
            rng.multivariate_normal(mu[False], cov[False], n),
        )
        samples = [
            make_sample(1.0 / (1.0 + math.exp(-x[i, 0])), bool(matched[i]),
                        box=(x[i, 1], x[i, 2], 0.01, 0.01), gt_index=i)
            for i in range(n)
        ]
        model = fit_parametric("logistic_dep", samples, ("confidence", "cx", "cy"))
        assert model.fit_metadata.converged and model.fit_metadata.n_iterations <= 25

        def quadratic_coefficients(p_pos, p_neg, mu_pos, mu_neg, c):
            # LLR = c0 + b.x + x^T q x; returns [c0, b, q_ii, 2 q_ij (i < j)].
            q = 0.5 * (p_neg - p_pos)
            b = p_pos @ mu_pos - p_neg @ mu_neg
            c0 = c - 0.5 * mu_pos @ p_pos @ mu_pos + 0.5 * mu_neg @ p_neg @ mu_neg
            iu, ju = np.triu_indices(3)
            return np.concatenate([[c0], b, np.where(iu == ju, 1.0, 2.0) * q[iu, ju]])

        inv = {label: np.linalg.inv(cov[label]) for label in (True, False)}
        c_true = math.log(prior / (1.0 - prior)) + 0.5 * (
            np.linalg.slogdet(inv[True])[1] - np.linalg.slogdet(inv[False])[1]
        )
        beta_true = quadratic_coefficients(inv[True], inv[False], mu[True], mu[False], c_true)
        p = model.params
        beta_hat = quadratic_coefficients(
            p.vinv_pos @ p.vinv_pos.T, p.vinv_neg @ p.vinv_neg.T, p.mu_pos, p.mu_neg, p.c
        )

        xf = build_feature_matrix(samples, model.feature_set)
        iu, ju = np.triu_indices(3)
        design = np.column_stack([np.ones(n), xf, xf[:, iu] * xf[:, ju]])
        g = 1.0 / (1.0 + np.exp(-(design @ beta_true)))
        fisher = (design * (g * (1.0 - g))[:, None]).T @ design
        se = np.sqrt(np.diag(np.linalg.inv(fisher)))
        assert np.max(np.abs(beta_hat - beta_true) / se) <= 4.0

        fitted = calibrators.sigmoid(loglik_ratio(model, xf))
        assert np.mean(np.abs(fitted - g)) < 0.01

    def test_nll_no_worse_than_bfgs_over_normal_parameters(self):
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 10000, seed=0))
        model = fit_parametric("logistic_dep", samples, ("confidence", "cx", "cy"))
        assert model.fit_metadata.converged and model.fit_metadata.n_iterations <= 25
        x = build_feature_matrix(samples, model.feature_set)
        m = labels(samples).astype(np.float64)
        z = loglik_ratio(model, x)
        newton_nll = float(np.mean(np.logaddexp(0.0, z) - m * z))

        k = 3
        start = np.zeros(theta_size("logistic_dep", k))
        pos = m > 0.5
        start[:k] = x[pos].mean(axis=0)
        start[k : 2 * k] = x[~pos].mean(axis=0)
        start[2 * k : 2 * k + 2 * k * k] = np.tile(np.eye(k).ravel(), 2)
        start[-1] = math.log(pos.sum() / (~pos).sum())
        theta, report = minimize(nll_objective("logistic_dep", x, m), start)
        assert report.converged
        bfgs_nll, _ = nll_objective("logistic_dep", x, m, ridge=0.0)(theta)
        assert newton_nll <= bfgs_nll + 1e-4

    def test_constant_feature_is_ignored(self):
        # The mean of 3000 copies of cy = 0.41 misses it by one rounding
        # step, so its standard deviation is rounding noise, not zero.
        rng = np.random.default_rng(58)
        scores = rng.uniform(0.05, 0.95, 3000)
        samples = [
            make_sample(p, bool(rng.random() < p), box=(float(cx), 0.41, 0.1, 0.1), gt_index=i)
            for i, (p, cx) in enumerate(zip(scores, rng.uniform(0.2, 0.8, 3000)))
        ]
        model = fit_parametric("logistic_dep", samples, ("confidence", "cx", "cy"))
        probe = np.array([[0.4, 0.5, 0.41], [0.4, 0.5, 0.9], [0.4, 0.5, 0.01]])
        z = loglik_ratio(model, probe)
        assert np.all(np.isfinite(z)) and np.ptp(z) < 1e-9

    def test_budget_exhaustion_raises(self):
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 2000, seed=3))
        with pytest.raises(ConvergenceError):
            fit_parametric(
                "logistic_dep", samples, ("confidence", "cx"),
                config=OptimizerConfig(max_iterations=1),
            )

    def test_singular_newton_system_is_a_numerical_failure(self, monkeypatch):
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 2000, seed=3))

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(calibrators.np.linalg, "solve", singular)
        with pytest.raises(NumericalFailureError):
            fit_parametric("logistic_dep", samples, ("confidence", "cx"))


class TestGeneralizedBetaConsistency:
    def test_llr_matches_direct_density_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            alpha_pos = rng.uniform(0.2, 5.0, k + 1)
            beta_pos = rng.uniform(0.2, 5.0, k + 1)
            alpha_neg = rng.uniform(0.2, 5.0, k + 1)
            beta_neg = rng.uniform(0.2, 5.0, k + 1)
            c_tied = log_multivariate_beta(alpha_neg) - log_multivariate_beta(alpha_pos)
            params = BetaDepParams(
                alpha_pos=alpha_pos,
                beta_pos=beta_pos,
                alpha_neg=alpha_neg,
                beta_neg=beta_neg,
                c=c_tied,
            )
            members = ("confidence", "cx", "cy", "w", "h")[:k]
            model = CalibrationModel("beta_dep", prob_fs(members), params)
            s = rng.uniform(0.05, 0.95, k)
            direct = generalized_beta_log_density(
                s, alpha_pos, beta_pos
            ) - generalized_beta_log_density(s, alpha_neg, beta_neg)
            assert abs(loglik_ratio(model, s) - direct) < 1e-9


class TestFusedObjectives:
    """The single-pass objectives against their per-term references."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_beta_dep_value_matches_llr_reference(self, k):
        rng = np.random.default_rng(40 + k)
        n, ridge = 800, 1e-3
        x = rng.uniform(1e-3, 1.0 - 1e-3, (n, k))
        m = (rng.uniform(size=n) < 0.4).astype(np.float64)
        objective = nll_objective("beta_dep", x, m, ridge)
        for _ in range(20):
            theta = identity_theta("beta_dep", k) + rng.normal(0.0, 0.5, theta_size("beta_dep", k))
            z = _llr_beta_dep(unpack_params("beta_dep", theta, k), x)
            expected = float(np.mean(np.logaddexp(0.0, z) - m * z)) + ridge * float(theta @ theta)
            value, _ = objective(theta)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert check_gradient(objective, theta) < 1e-6

    @pytest.mark.parametrize("method, llr", [("logistic_indep", _llr_logistic_indep),
                                             ("beta_indep", _llr_beta_indep)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_linear_problem_matches_llr_reference(self, method, llr, k):
        rng = np.random.default_rng(60 + k)
        n, ridge, h = 800, 1e-3, 1e-5
        x = rng.uniform(1e-3, 1.0 - 1e-3, (n, k)) if method == "beta_indep" else rng.normal(0.0, 2.0, (n, k))
        m = (rng.uniform(size=n) < 0.4).astype(np.float64)
        objective = nll_objective(method, x, m, ridge)

        def reference(theta):
            z = llr(unpack_params(method, theta, k), x)
            return float(np.mean(np.logaddexp(0.0, z) - m * z)) + ridge * float(theta @ theta)

        for _ in range(20):
            theta = identity_theta(method, k) + rng.normal(0.0, 0.5, theta_size(method, k))
            value, grad = objective(theta)
            assert value == pytest.approx(reference(theta), rel=1e-12, abs=0.0)
            step = h * np.eye(theta.size)
            fd = np.array([(reference(theta + e) - reference(theta - e)) / (2.0 * h) for e in step])
            assert np.max(np.abs(fd - grad)) <= 1e-8 * max(1.0, np.max(np.abs(grad)))

    def test_nll_and_residual_at_extreme_logits(self):
        z = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        for label in (0.0, 1.0):
            for zi in z:
                one, m = np.array([zi]), np.array([label])
                nll, r = _nll_and_residual(one, m)
                assert math.isfinite(nll) and np.all(np.isfinite(r))
                assert abs(nll - float(np.logaddexp(0.0, one)[0] - label * zi)) <= 1e-15
                assert abs(r[0] - (sigmoid(one)[0] - label)) <= 1e-15
            m = np.full(z.size, label)
            nll, r = _nll_and_residual(z, m)
            assert abs(nll - float(np.mean(np.logaddexp(0.0, z) - m * z))) <= 1e-15
            np.testing.assert_allclose(r, sigmoid(z) - m, rtol=0.0, atol=1e-15)


FIG3_MEMBERS = {"conf": ("confidence",), "conf+xy": ("confidence", "cx", "cy"),
                "conf+wh": ("confidence", "w", "h"), "full": ("confidence", "cx", "cy", "w", "h")}


def _fig3_design(method, n, seed, members):
    samples = synth.generate(synth.make_scenario("fig3_boundary_decay", n, seed=seed))
    fs = calibrators._normalize_feature_set(method, members)
    return build_feature_matrix(samples, fs), labels(samples).astype(np.float64)


class TestIndependentNewtonFits:
    """lc, bc and lc-dep's design problem pass an exact Hessian (bc's clipped where not convex)."""

    @staticmethod
    def _fd_hessian(objective, theta, h=1e-5):
        """Central differences of the analytic gradient, one column per coordinate."""
        cols = []
        for i in range(theta.size):
            e = np.zeros(theta.size)
            e[i] = h
            cols.append((objective(theta + e)[1] - objective(theta - e)[1]) / (2.0 * h))
        return np.column_stack(cols)

    @pytest.mark.parametrize("method", ["logistic_indep", "beta_indep", "logistic_dep"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_hessian_matches_differenced_gradient(self, method, k):
        rng = np.random.default_rng(70 + k)
        members = {1: FIG3_MEMBERS["conf"], 3: FIG3_MEMBERS["conf+xy"], 5: FIG3_MEMBERS["full"]}[k]
        x, m = _fig3_design(method, 1500, 9, members)
        ridge = 1e-3
        if method == "logistic_dep":
            # The convex problem lc-dep solves, over its quadratic design.
            a = calibrators._standardized_design(x)[0]
            objective, hessian = calibrators._linear_problem(a, m, ridge)
            start = np.zeros(a.shape[1])
        else:
            objective = nll_objective(method, x, m, ridge)
            hessian = calibrators._FAMILIES[method].problem(x, m, ridge)[1]
            start = identity_theta(method, k)
        nll_grad = nll_objective(method, x, m, ridge=0.0)
        clipped = 0
        # Near the start, and far from any optimum.
        for spread in (0.3, 0.3, 2.0, 2.0, 4.0):
            theta = start + rng.normal(0.0, spread, start.size)
            h = hessian(theta)
            np.testing.assert_allclose(h, h.T, rtol=1e-12, atol=1e-15)
            assert np.linalg.eigvalsh(h).min() > 0.0
            exact = h.copy()
            if method == "beta_indep":
                # The chain-rule term of an exp slot is the NLL's gradient there;
                # the Hessian drops it where it is negative.
                g = nll_grad(theta)[1]
                for slot in (0, k):
                    exact[slot, slot] += min(g[slot], 0.0)
                    clipped += g[slot] < 0.0
            fd = self._fd_hessian(objective, theta)
            assert np.max(np.abs(fd - exact)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))
        if method == "beta_indep":
            assert clipped > 0

    @pytest.mark.parametrize("method", ["logistic_indep", "beta_indep"])
    @pytest.mark.parametrize("fs", list(FIG3_MEMBERS))
    @pytest.mark.parametrize("seed", [11, 12])
    def test_newton_reaches_the_bfgs_optimum(self, method, fs, seed):
        x, m = _fig3_design(method, 8000, seed, FIG3_MEMBERS[fs])
        k = x.shape[1]
        theta, report, _ = calibrators._fit_from_identity(
            method, x, m, calibrators.DEFAULT_RIDGE, OptimizerConfig()
        )
        assert report.converged and report.iterations <= 20
        bfgs, bfgs_report = minimize(nll_objective(method, x, m), identity_theta(method, k))
        assert bfgs_report.converged and bfgs_report.iterations > report.iterations
        unpenalized = nll_objective(method, x, m, ridge=0.0)
        assert abs(unpenalized(theta)[0] - unpenalized(bfgs)[0]) <= 1e-6


class TestBlockedGaussNewton:
    """The Gauss-Newton product summed over row blocks equals one product over the whole design."""

    @pytest.mark.parametrize("p", [2, 11, 21])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below-block", "one-block", "one-past"])
    def test_matches_one_product(self, p, offset):
        n = calibrators._GN_BLOCK + offset
        rng = np.random.default_rng(100 * p + offset + 1)
        a = rng.normal(size=(n, p))
        m = (rng.random(n) < 0.4).astype(np.float64)
        q = rng.random(n)
        # Saturated scores: rows whose weight q (1 - q) is exactly zero.
        q[rng.random(n) < 0.1] = 0.0
        q[rng.random(n) < 0.1] = 1.0
        r = q - m
        h = calibrators._gauss_newton(a, r, m)
        reference = reference_gauss_newton(a, r, m)
        assert np.max(np.abs(h - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_zero_weights(self):
        n = calibrators._GN_BLOCK + 1
        a = np.random.default_rng(3).normal(size=(n, 11))
        m = np.arange(n) % 2.0
        assert not calibrators._gauss_newton(a, 1.0 - 2.0 * m, m).any()

    # Newton steps of each fit on fig3 (n = 6,000, seed 1) at K = 1, 3 and 5, as taken with the
    # one-product Hessian.
    STEPS = {"logistic_indep": {"conf": 3, "conf+xy": 3, "full": 3},
             "beta_indep": {"conf": 15, "conf+xy": 13, "full": 12},
             "logistic_dep": {"conf": 3, "conf+xy": 3, "full": 3}}

    @pytest.mark.parametrize("method", list(STEPS))
    @pytest.mark.parametrize("fs", ["conf", "conf+xy", "full"])
    def test_fits_keep_their_steps(self, monkeypatch, method, fs):
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 6000, seed=1))
        model = fit(method, samples, FIG3_MEMBERS[fs])
        assert model.fit_metadata.n_iterations == self.STEPS[method][fs]
        monkeypatch.setattr(calibrators, "_gauss_newton", reference_gauss_newton)
        reference = fit(method, samples, FIG3_MEMBERS[fs])
        assert reference.fit_metadata.n_iterations == model.fit_metadata.n_iterations
        for field in model_to_json(model)["params"]:
            got, want = np.ravel(getattr(model.params, field)), np.ravel(getattr(reference.params, field))
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestFitMemory:
    """A Newton fit holds its feature matrix, one design and one row block of temporaries."""

    @pytest.mark.parametrize("method, width", [("logistic_dep", 21), ("beta_indep", 11)])
    def test_full_fit_peak(self, method, width):
        n = 20_000
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", n, seed=1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fit(method, samples, FIG3_MEMBERS["full"])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        features, design = 8 * n * 5, 8 * n * width
        block = 8 * calibrators._GN_BLOCK * width
        # The labels, the last point's residual and the NLL kernel's temporaries.
        vectors = 8 * 8 * n
        assert peak < features + design + block + vectors


class TestHistBinning:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        model = fit_hist_binning(four_sample_dataset(), ("confidence",), 2)
        with pytest.raises(UsageError, match="finite"):
            calibrators.calibrate_matrix(model, np.array([[0.5], [bad]]))

    @pytest.mark.parametrize("members, bins", [
        (("confidence",), 2**63),
        (FIG3_MEMBERS["full"], 10000),
        (FIG3_MEMBERS["full"], 1000),  # fits in int64, but no host allocates 7 PiB
    ], ids=["overflow-k1", "overflow-k5", "unallocatable"])
    def test_oversized_grid_rejected(self, members, bins):
        samples = random_matched_samples(np.random.default_rng(18), 50)
        with pytest.raises(UsageError, match="grid"):
            fit_hist_binning(samples, members, bins)

    @pytest.mark.parametrize("bins", [2.5, True, (2.5,), (True,)], ids=["float", "bool", "float-entry", "bool-entry"])
    def test_non_integer_bin_count_refused(self, bins):
        samples = random_matched_samples(np.random.default_rng(18), 50)
        with pytest.raises(UsageError, match="bin count must be an integer >= 1"):
            fit("hist_binning", samples, ("confidence",), bin_counts=bins)

    def test_numpy_integer_bin_counts(self):
        samples = random_matched_samples(np.random.default_rng(18), 50)
        model = fit("hist_binning", samples, ("confidence", "cx"), bin_counts=np.int64(5))
        assert model.params.bin_counts == (5, 5) and all(type(c) is int for c in model.params.bin_counts)
        assert fit_hist_binning(samples, ("confidence", "cx"), np.array([3, 4])).params.bin_counts == (3, 4)

    def test_all_matched_stores_ones(self):
        samples = [make_sample(p, True) for p in (0.1, 0.5, 0.9)]
        model = fit_hist_binning(samples, ("confidence",), 4)
        table = model.params.tables[-1]
        assert np.all(table[np.isfinite(table)] == 1.0)

    def test_four_sample_cells(self):
        model = fit_hist_binning(four_sample_dataset(), ("confidence",), 2)
        table = model.params.tables[-1]
        assert table[0] == 0.0 and table[1] == 0.5

    def test_idempotent_on_well_separated_cells(self):
        from dataclasses import replace

        samples = (
            [make_sample(0.05, False)] * 9 + [make_sample(0.05, True)]
            + [make_sample(0.55, True)] * 5 + [make_sample(0.55, False)] * 5
            + [make_sample(0.95, True)] * 9 + [make_sample(0.95, False)]
        )
        model = fit_hist_binning(samples, ("confidence",), 10)
        q1 = apply(model, samples)
        calibrated = [
            replace(s, detection=replace(s.detection, score=float(v)))
            for s, v in zip(samples, q1)
        ]
        model2 = fit_hist_binning(calibrated, ("confidence",), 10)
        q2 = apply(model2, calibrated)
        assert np.array_equal(q1, q2)

    def test_fallback_chain_descends_to_marginals(self):
        # Train occupies only the low-cx cell; a high-cx probe must fall back
        # to the confidence-marginal table.
        samples = [make_sample(0.9, True, box=(0.2, 0.5, 0.1, 0.1)) for _ in range(4)]
        samples += [make_sample(0.9, False, box=(0.2, 0.5, 0.1, 0.1))]
        model = fit_hist_binning(samples, ("confidence", "cx"), (2, 2))
        probe = [make_sample(0.9, False, box=(0.8, 0.5, 0.1, 0.1))]
        assert apply(model, probe)[0] == 0.8

    def test_fallback_reaches_global_precision(self):
        samples = [make_sample(0.9, True), make_sample(0.9, True), make_sample(0.9, False)]
        model = fit_hist_binning(samples, ("confidence",), 4)
        probe = [make_sample(0.1, False)]
        assert apply(model, probe)[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_default_bin_counts_by_dimension(self):
        rng = np.random.default_rng(9)
        samples = random_matched_samples(rng, 300)
        assert fit_hist_binning(samples, ("confidence",)).params.bin_counts == (15,)
        assert fit_hist_binning(samples, ("confidence", "cx", "cy")).params.bin_counts == (5, 5, 5)
        full = ("confidence", "cx", "cy", "w", "h")
        assert fit_hist_binning(samples, full).params.bin_counts == (3, 3, 3, 3, 3)

    def test_empty_input_rejected(self):
        from detcal.errors import DataError

        with pytest.raises(DataError):
            fit_hist_binning([], ("confidence",), 4)


class TestFitParametric:
    def test_single_label_data_rejected(self):
        samples = [make_sample(0.5, True)] * 10
        with pytest.raises(DegenerateDataError):
            fit_parametric("logistic_indep", samples, ("confidence",))

    def test_unknown_method_rejected(self):
        with pytest.raises(UsageError):
            fit_parametric("isotonic", four_sample_dataset(), ("confidence",))

    @pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf, -math.inf])
    def test_ridge_must_be_finite_and_non_negative(self, ridge):
        samples = random_matched_samples(np.random.default_rng(10), 200, extreme_scores=False)
        with pytest.raises(UsageError, match="ridge"):
            fit_parametric("logistic_indep", samples, ("confidence",), ridge=ridge)

    def test_zero_ridge_fits(self):
        samples = random_matched_samples(np.random.default_rng(10), 500, extreme_scores=False)
        assert fit_parametric("logistic_indep", samples, ("confidence",), ridge=0.0).fit_metadata.converged

    def test_fit_metadata_populated(self):
        rng = np.random.default_rng(10)
        samples = random_matched_samples(rng, 500, extreme_scores=False)
        model = fit_parametric("logistic_indep", samples, ("confidence",))
        meta = model.fit_metadata
        assert meta.n_samples == 500
        assert meta.converged and meta.n_iterations > 0
        assert meta.final_nll is not None and math.isfinite(meta.final_nll)

    @pytest.mark.parametrize("method", calibrators.PARAMETRIC_METHODS)
    def test_nll_no_worse_than_identity_map(self, method):
        for seed, scenario in ((0, "fig3_boundary_decay"), (1, "uniform_overconfident")):
            samples = synth.generate(synth.make_scenario(scenario, 10000, seed=seed))
            members = ("confidence", "cx", "cy")
            model = fit_parametric(method, samples, members)
            fs = model.feature_set
            x = build_feature_matrix(samples, fs)
            m = labels(samples)
            objective = nll_objective(method, x, m)
            identity_value, _ = objective(identity_theta(method, 3))
            assert model.fit_metadata.final_nll <= identity_value + 1e-12

    def test_monotone_in_confidence_with_positive_params(self):
        # Guaranteed at the parameter level for independent beta (a[0], b[0]
        # positive) and for logistic maps with positive confidence weight.
        # The generalized-beta ratio carries no such guarantee, so the
        # dependent variant is deliberately absent here.
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 10000, seed=12))
        grid = np.linspace(0.01, 0.99, 99)
        for method in ("beta_indep", "logistic_indep"):
            model = fit_parametric(method, samples, ("confidence", "cx", "cy"))
            if method == "logistic_indep" and model.params.w[0] <= 0:
                continue
            probes = [make_sample(p, False, box=(0.4, 0.6, 0.2, 0.2)) for p in grid]
            q = apply(model, probes)
            assert np.all(np.diff(q) >= -1e-9)

    def test_near_identity_on_perfectly_calibrated_scores(self):
        rng = np.random.default_rng(21)
        scores = rng.uniform(0.05, 0.95, 50000)
        samples = [
            make_sample(s, bool(rng.random() < s), gt_index=i) for i, s in enumerate(scores)
        ]
        model = fit_parametric("logistic_indep", samples, ("confidence",))
        grid = np.arange(0.01, 1.0, 0.01)
        q = apply(model, [make_sample(p, False) for p in grid])
        assert np.max(np.abs(q - grid)) < 0.02

    def test_beta_constraint_activation_keeps_map_monotone(self):
        # Anti-calibrated data pushes the unconstrained optimum to a
        # decreasing map; the constrained fit must stay (weakly) increasing.
        rng = np.random.default_rng(13)
        scores = rng.uniform(0.05, 0.95, 3000)
        samples = [
            make_sample(s, bool(rng.random() < (1.0 - s)), gt_index=i)
            for i, s in enumerate(scores)
        ]
        model = fit_parametric("beta_indep", samples, ("confidence",))
        assert model.params.a[0] > 1e-8 and model.params.b[0] > 1e-8
        assert model.params.a[0] < 1e-3 and model.params.b[0] < 1e-3
        grid = np.linspace(0.01, 0.99, 99)
        q = apply(model, [make_sample(p, False) for p in grid])
        assert np.all(np.diff(q) >= -1e-9)

    @pytest.mark.parametrize("method", calibrators.PARAMETRIC_METHODS)
    def test_every_family_fits_through_one_minimize_call(self, method, monkeypatch):
        reports = []
        solver = calibrators.minimize

        def counting(*args, **kwargs):
            x, report = solver(*args, **kwargs)
            reports.append(report)
            return x, report

        monkeypatch.setattr(calibrators, "minimize", counting)
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 2000, seed=4))
        model = fit_parametric(method, samples, ("confidence", "cx"))
        assert len(reports) == 1
        assert model.fit_metadata.n_iterations == reports[0].iterations > 0

    def test_fit_dispatch(self):
        rng = np.random.default_rng(14)
        samples = random_matched_samples(rng, 300, extreme_scores=False)
        assert fit("hist_binning", samples, ("confidence",)).method == "hist_binning"
        assert fit("logistic_indep", samples, ("confidence",)).method == "logistic_indep"


class TestModelValidation:
    def test_method_params_type_mismatch(self):
        with pytest.raises(ValidationError):
            CalibrationModel("beta_indep", prob_fs(), LogisticIndepParams(w=np.ones(1), c=0.0))

    def test_k_mismatch_between_params_and_feature_set(self):
        with pytest.raises(ValidationError):
            CalibrationModel(
                "logistic_indep",
                logit_fs(("confidence", "cx")),
                LogisticIndepParams(w=np.ones(1), c=0.0),
            )

    def test_encoding_mismatch(self):
        with pytest.raises(ValidationError):
            CalibrationModel(
                "logistic_indep", prob_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
            )
        with pytest.raises(ValidationError):
            CalibrationModel(
                "beta_indep", logit_fs(), BetaIndepParams(a=np.ones(1), b=np.ones(1), c=0.0)
            )

    def test_beta_positivity_enforced(self):
        with pytest.raises(ValidationError):
            BetaIndepParams(a=np.array([-0.1]), b=np.ones(1), c=0.0)
        with pytest.raises(ValidationError):
            BetaDepParams(
                alpha_pos=np.array([1.0, -1.0]),
                beta_pos=np.ones(2),
                alpha_neg=np.ones(2),
                beta_neg=np.ones(2),
                c=0.0,
            )

    @pytest.mark.parametrize("build", [
        lambda: LogisticIndepParams(w=[math.nan], c=0.0),
        lambda: LogisticIndepParams(w=[1.0], c=math.inf),
        lambda: BetaIndepParams(a=[1.0, -math.inf], b=[1.0, 1.0], c=0.0),
        lambda: BetaDepParams(alpha_pos=[math.inf, 1.0], beta_pos=[1.0, 1.0],
                              alpha_neg=[1.0, 1.0], beta_neg=[1.0, 1.0], c=0.0),
        lambda: LogisticDepParams(mu_pos=[0.0], mu_neg=[0.0], vinv_pos=[[math.nan]],
                                  vinv_neg=[[1.0]], c=0.0),
    ], ids=["lc-weight", "lc-bias", "bc-tail", "bc-dep-exp-slot", "lc-dep-vinv"])
    def test_non_finite_entries_rejected(self, build):
        with pytest.raises(ValidationError, match="finite"):
            build()

    @pytest.mark.parametrize("method", ["beta_indep", "beta_dep"])
    def test_overflowing_exp_slot_rejected_without_warning(self, method):
        theta = identity_theta(method, 1)
        theta[0] = 1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                unpack_params(method, theta, 1)

    def test_hist_table_shape_enforced(self):
        with pytest.raises(ValidationError):
            HistBinningParams(bin_counts=(2,), tables=(np.zeros(3),), global_precision=0.5)


class TestSerialization:
    # K = 3 keeps the bare method id it has always had.
    @pytest.mark.parametrize("method, members", [
        pytest.param(method, members, id=method if len(members) == 3 else f"{method}-k{len(members)}")
        for method in calibrators.METHODS
        for members in (("confidence",), ("confidence", "cx", "cy"),
                        ("confidence", "cx", "cy", "w", "h"))
    ])
    def test_round_trip_applies_identically(self, method, members, tmp_path):
        samples = synth.generate(synth.make_scenario("uniform_overconfident", 10000, seed=16))
        model = fit(method, samples, members)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = random_matched_samples(np.random.default_rng(17), 200)
        assert np.array_equal(apply(model, probe), apply(loaded, probe))
        assert loaded.method == model.method
        assert loaded.fit_metadata == model.fit_metadata

    def test_unknown_method_rejected(self):
        data = model_to_json(
            CalibrationModel(
                "logistic_indep", logit_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
            )
        )
        data["method"] = "spline"
        with pytest.raises(ValidationError):
            model_from_json(data)

    def test_version_mismatch_rejected(self):
        data = model_to_json(
            CalibrationModel(
                "logistic_indep", logit_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
            )
        )
        data["schema_version"] = 99
        with pytest.raises(ValidationError):
            model_from_json(data)

    def test_k_mismatch_rejected(self):
        data = model_to_json(
            CalibrationModel(
                "logistic_indep", logit_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
            )
        )
        data["params"]["w"] = [1.0, 2.0]
        with pytest.raises(ValidationError):
            model_from_json(data)

    def test_missing_field_rejected(self):
        data = model_to_json(
            CalibrationModel(
                "logistic_indep", logit_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
            )
        )
        del data["params"]["c"]
        with pytest.raises(ValidationError):
            model_from_json(data)

    def test_category_id_preserved(self, tmp_path):
        model = CalibrationModel(
            "logistic_indep",
            logit_fs(),
            LogisticIndepParams(w=np.ones(1), c=0.0),
            category_id=17,
            fit_metadata=FitMetadata(10, 0.5, 3, True),
        )
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).category_id == 17


class TestModelFileContract:
    """One field of a valid model replaced by any JSON yields a model or a ValidationError."""

    @staticmethod
    def valid_json(method):
        if method == "hist_binning":
            return model_to_json(fit_hist_binning(four_sample_dataset(), ("confidence",), 2))
        fs = FeatureSet(("confidence", "cx", "cy"), calibrators.expected_encoding(method))
        params = unpack_params(method, identity_theta(method, 3), 3)
        return model_to_json(CalibrationModel(method, fs, params))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_field_replaced_by_arbitrary_json(self, data):
        method = data.draw(st.sampled_from(calibrators.METHODS))
        doc = self.valid_json(method)
        block = data.draw(st.sampled_from(["params", "fit_metadata"]))
        key = data.draw(st.sampled_from([None, *doc[block]]))
        value = data.draw(JSON_VALUES)
        if key is None:
            doc[block] = value
        else:
            doc[block][key] = value
        try:
            model = model_from_json(doc)
        except ValidationError:
            return
        assert isinstance(model, CalibrationModel) and model.method == method

    @pytest.mark.parametrize("field", ["c", "w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        data = model_to_json(
            CalibrationModel(
                "logistic_indep", logit_fs(), LogisticIndepParams(w=np.ones(1), c=0.0)
            )
        )
        data["params"][field] = value if field == "c" else [value]
        with pytest.raises(ValidationError, match="finite"):
            model_from_json(data)

    def test_infinite_histogram_cell_rejected(self):
        data = model_to_json(fit_hist_binning(four_sample_dataset(), ("confidence",), 2))
        data["params"]["tables"][0][0] = math.inf
        with pytest.raises(ValidationError):
            model_from_json(data)
