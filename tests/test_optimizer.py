import math

import numpy as np
import pytest
import scipy.optimize

from detcal import synth
from detcal.calibrators import identity_theta, nll_objective, theta_size
from detcal.errors import NumericalFailureError, UsageError
from detcal.features import FeatureSet, build_feature_matrix, labels
from detcal.optimizer import MAX_BACKTRACKS, OptimizerConfig, check_gradient, minimize
from oracles import random_matched_samples, reference_minimize


def quadratic(x):
    return 0.5 * float(x @ x), x


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])
    return f, g


def rosenbrock_hessian(x):
    a, b = x
    return np.array([[2.0 - 400.0 * (b - 3.0 * a * a), -400.0 * a], [-400.0 * a, 200.0]])


SEPARABLE_X = np.array([-2.0, -1.0, 1.0, 2.0])


def separable_logistic_objective(ridge=1e-6):
    x = SEPARABLE_X
    y = np.array([0.0, 0.0, 1.0, 1.0])

    def objective(theta):
        z = theta[0] * x + theta[1]
        f = float(np.mean(np.logaddexp(0.0, z) - y * z)) + ridge * float(theta @ theta)
        r = 1.0 / (1.0 + np.exp(-z)) - y
        g = np.array([float(r @ x), float(r.sum())]) / x.size + 2.0 * ridge * theta
        return f, g

    return objective


def separable_logistic_hessian(ridge=1e-6):
    design = np.column_stack([SEPARABLE_X, np.ones(SEPARABLE_X.size)])

    def hessian(theta):
        q = 1.0 / (1.0 + np.exp(-(design @ theta)))
        return (design * (q * (1.0 - q))[:, None]).T @ design / SEPARABLE_X.size + 2.0 * ridge * np.eye(2)

    return hessian


class TestMinimize:
    def test_quadratic_bowl(self):
        x, report = minimize(quadratic, np.array([3.0, -4.0, 5.0]))
        assert report.converged
        assert np.max(np.abs(x)) <= 1e-6

    def test_rosenbrock(self):
        x, report = minimize(
            rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(gradient_tolerance=1e-9)
        )
        assert report.converged
        assert np.max(np.abs(x - 1.0)) < 1e-6

    def test_separable_logistic_matches_high_precision_oracle(self):
        # The ridge keeps the optimum finite on separable data; the oracle is
        # an independent high-precision solver whose stationarity we verify
        # from the closed-form gradient before comparing.
        objective = separable_logistic_objective()
        x, report = minimize(
            objective,
            np.zeros(2),
            OptimizerConfig(gradient_tolerance=1e-10, max_iterations=20000),
        )
        assert report.converged and np.all(np.isfinite(x))
        oracle = scipy.optimize.minimize(
            objective,
            np.zeros(2),
            jac=True,
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-18, "maxiter": 50000},
        )
        _, oracle_grad = objective(oracle.x)
        assert np.max(np.abs(oracle_grad)) < 1e-8
        assert abs(report.final_value - oracle.fun) < 1e-12
        assert np.max(np.abs(x - oracle.x)) < 1e-2

    def test_deterministic_trajectory(self):
        trajectories = []
        for _ in range(2):
            accepted = []
            minimize(rosenbrock, np.array([-1.2, 1.0]), callback=lambda x, f: accepted.append((x.copy(), f)))
            trajectories.append(accepted)
        a, b = trajectories
        assert len(a) == len(b)
        for (xa, fa), (xb, fb) in zip(a, b):
            assert np.array_equal(xa, xb) and fa == fb

    def test_accepted_objective_monotone(self):
        values = []
        minimize(rosenbrock, np.array([-1.2, 1.0]), callback=lambda x, f: values.append(f))
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_budget_exhaustion_reports_instead_of_raising(self):
        x, report = minimize(
            rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(max_iterations=2)
        )
        assert not report.converged
        assert report.iterations == 2
        assert report.gradient_norm > 0

    def test_nonfinite_start_raises(self):
        def bad(x):
            return float("nan"), x

        with pytest.raises(NumericalFailureError):
            minimize(bad, np.zeros(2))

    def test_nonfinite_accepted_iterate_raises(self):
        # Value keeps decreasing so steps are accepted, but the gradient
        # blows up away from the start.
        def trap(x):
            f = float(x[0])
            g = np.array([1.0 if x[0] > -0.5 else float("inf")])
            return f, g

        with pytest.raises(NumericalFailureError):
            minimize(trap, np.array([0.0]))

    def test_already_converged_start(self):
        x, report = minimize(quadratic, np.zeros(3))
        assert report.converged and report.iterations == 0

    def test_config_validation(self):
        with pytest.raises(UsageError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(UsageError):
            OptimizerConfig(gradient_tolerance=0.0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(UsageError, match="gradient_tolerance"):
            OptimizerConfig(gradient_tolerance=tol)

    @pytest.mark.parametrize("tol", ["1e-6", None, True])
    def test_tolerance_must_be_a_number(self, tol):
        with pytest.raises(UsageError, match="gradient_tolerance must be a real number"):
            OptimizerConfig(gradient_tolerance=tol)

    @pytest.mark.parametrize("value", [True, 2.5, "5", None])
    def test_max_iterations_must_be_a_count(self, value):
        with pytest.raises(UsageError, match="max_iterations must be an integer >= 1"):
            OptimizerConfig(max_iterations=value)

    @pytest.mark.parametrize("cfg", ["x", {"max_iterations": 5}, 5])
    def test_settings_must_be_an_optimizer_config(self, cfg):
        with pytest.raises(UsageError, match="^cfg must be an OptimizerConfig or None, got "):
            minimize(quadratic, np.ones(2), cfg)

    def test_no_settings_are_the_defaults(self):
        x, report = minimize(quadratic, np.ones(2), None)
        assert report.converged and report.iterations <= OptimizerConfig().max_iterations

    def test_max_iterations_below_one_keeps_its_message(self):
        with pytest.raises(UsageError) as excinfo:
            OptimizerConfig(max_iterations=0)
        assert str(excinfo.value) == "max_iterations must be >= 1"


class TestNewtonDirection:
    """``minimize`` with a Hessian takes Newton steps through the same line search."""

    def test_exact_quadratic_converges_in_one_iteration(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        b = np.array([1.0, -2.0, 0.5])

        def bowl(x):
            return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

        x, report = minimize(bowl, np.zeros(3), OptimizerConfig(gradient_tolerance=1e-12),
                             hessian=lambda x: a)
        assert report.converged and report.iterations == 1
        assert np.allclose(x, np.linalg.solve(a, b), rtol=0.0, atol=1e-12)

    def test_separable_logistic_matches_high_precision_oracle(self):
        objective = separable_logistic_objective()
        x, report = minimize(objective, np.zeros(2), OptimizerConfig(gradient_tolerance=1e-10),
                             hessian=separable_logistic_hessian())
        oracle = scipy.optimize.minimize(
            objective, np.zeros(2), jac=True, method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-18, "maxiter": 50000},
        )
        assert report.converged and np.all(np.isfinite(x))
        assert abs(report.final_value - oracle.fun) < 1e-12

    def test_nonfinite_step_raises(self):
        with pytest.raises(NumericalFailureError, match="non-finite Newton step"):
            minimize(quadratic, np.ones(2), hessian=lambda x: np.full((2, 2), np.nan))

    def test_budget_exhaustion_reports_instead_of_raising(self):
        x, report = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(max_iterations=1),
                             hessian=rosenbrock_hessian)
        assert not report.converged and report.iterations == 1 and report.gradient_norm > 0

    def test_accepted_objective_monotone(self):
        values = []
        minimize(separable_logistic_objective(), np.zeros(2), hessian=separable_logistic_hessian(),
                 callback=lambda x, f: values.append(f))
        assert len(values) > 2
        assert all(b <= a for a, b in zip(values, values[1:]))


def _outcome(solver, objective, x0, cfg=OptimizerConfig(), hessian=None):
    """Everything a minimizer run shows, as bits: iterate, report, callbacks, or the exception."""
    calls = []

    def callback(x, f):
        calls.append((x.tobytes(), float(f).hex()))

    try:
        x, report = solver(objective, x0, cfg, callback, hessian=hessian)
    except NumericalFailureError as exc:
        return "raised", type(exc), str(exc), exc.iterate.tobytes(), calls
    return (x.tobytes(), float(report.final_value).hex(), float(report.gradient_norm).hex(),
            report.iterations, report.converged, calls)


FIG3_MEMBERS = {1: ("confidence",), 3: ("confidence", "cx", "cy"),
                5: ("confidence", "cx", "cy", "w", "h")}


class TestSameBitsAsTheReferenceLoop:
    """``minimize`` reproduces the reference loop (``oracles.reference_minimize``) bit for bit."""

    def _same(self, objective, x0, cfg=OptimizerConfig(), hessian=None):
        got = _outcome(minimize, objective, x0, cfg, hessian)
        assert got == _outcome(reference_minimize, objective, x0, cfg, hessian)
        return got

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_beta_dep_fit_on_fig3(self, k):
        samples = synth.generate(synth.make_scenario("fig3_boundary_decay", 3000, seed=k))
        fs = FeatureSet(members=FIG3_MEMBERS[k], confidence_encoding="probability")
        objective = nll_objective("beta_dep", build_feature_matrix(samples, fs), labels(samples))
        got = self._same(objective, identity_theta("beta_dep", k))
        assert got[4] and got[3] > 10  # converged, after real BFGS work

    def test_non_convex_objective(self):
        got = self._same(rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(gradient_tolerance=1e-9))
        assert got[4] and len(got[5]) == got[3]

    @pytest.mark.parametrize("later", [10.0, float("nan")])
    def test_line_search_exhaustion(self, later):
        # Every trial point is worse than the start (or not finite), so all
        # backtracks fail; a fresh objective per run, since it counts calls.
        def fresh():
            calls = iter(range(1000))

            def objective(x):
                return 0.5 * float(x @ x) + (later if next(calls) else 0.0), x

            return objective

        x0 = np.array([1.0, -2.0])
        got = _outcome(minimize, fresh(), x0)
        assert got == _outcome(reference_minimize, fresh(), x0)
        assert (got[3], got[4], got[5]) == (0, False, [])

    def test_steepest_descent_fallback(self):
        # A negative definite Hessian gives ascent directions, replaced by -g.
        got = self._same(quadratic, np.array([3.0, -4.0]), hessian=lambda x: -np.eye(2))
        assert got[4] and got[3] >= 1

    def test_singular_newton_system(self):
        got = self._same(rosenbrock, np.array([-1.2, 1.0]), hessian=lambda x: np.zeros((2, 2)))
        assert got[:3] == ("raised", NumericalFailureError, "singular Newton system at iterate 0")

    def test_non_finite_start_and_accepted_iterate(self):
        def trap(x):
            return float(x[0]), np.array([1.0 if x[0] > -0.5 else float("inf")])

        assert self._same(trap, np.array([0.0]))[0] == "raised"
        assert self._same(lambda x: (float("nan"), x), np.zeros(2))[0] == "raised"

    def test_budget_exhaustion(self):
        got = self._same(rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(max_iterations=7))
        assert (got[3], got[4]) == (7, False)


def _lazy(value, gradient, counts):
    """The objective ``(value(x), a callable computing gradient(x))``, counting values and gradients."""
    def objective(x):
        counts["values"] += 1

        def later():
            counts["gradients"] += 1
            return gradient(x)

        return value(x), later

    return objective


class TestLazyGradient:
    """An objective may return its gradient as a callable: same bits, gradients only at accepted points."""

    def _both(self, value, gradient, x0, cfg=OptimizerConfig(), hessian=None):
        counts = {"values": 0, "gradients": 0}
        lazy = _outcome(minimize, _lazy(value, gradient, counts), x0, cfg, hessian)
        eager = _outcome(minimize, lambda x: (value(x), gradient(x)), x0, cfg, hessian)
        assert lazy == eager
        return lazy, counts

    @pytest.mark.parametrize("hessian", [None, rosenbrock_hessian], ids=["bfgs", "newton"])
    def test_rosenbrock(self, hessian):
        got, counts = self._both(lambda x: rosenbrock(x)[0], lambda x: rosenbrock(x)[1],
                                 np.array([-1.2, 1.0]), OptimizerConfig(gradient_tolerance=1e-9), hessian)
        assert got[4] and counts["gradients"] == got[3] + 1
        assert counts["values"] > counts["gradients"]  # some trial points were rejected

    @pytest.mark.parametrize("later", [10.0, float("nan")])
    def test_line_search_exhaustion(self, later):
        # Every trial point is worse than the start (or not finite); the only
        # gradient is the start's. A fresh value per run, since it counts calls.
        def fresh():
            calls = iter(range(1000))
            return lambda x: 0.5 * float(x @ x) + (later if next(calls) else 0.0)

        x0, counts, eager = np.array([1.0, -2.0]), {"values": 0, "gradients": 0}, fresh()
        got = _outcome(minimize, _lazy(fresh(), lambda x: x, counts), x0)
        assert got == _outcome(minimize, lambda x: (eager(x), x), x0)
        assert (got[3], got[4], got[5]) == (0, False, [])
        assert counts == {"values": 1 + MAX_BACKTRACKS, "gradients": 1}

    def test_non_finite_gradient_at_an_accepted_iterate(self):
        got, counts = self._both(lambda x: float(x[0]),
                                 lambda x: np.array([1.0 if x[0] > -0.5 else float("inf")]), np.array([0.0]))
        assert got[0] == "raised" and counts["gradients"] == len(got[4]) + 2

    def test_check_gradient_takes_either_form(self):
        counts = {"values": 0, "gradients": 0}
        lazy = _lazy(lambda x: rosenbrock(x)[0], lambda x: rosenbrock(x)[1], counts)
        x = np.array([0.3, -0.4])
        assert check_gradient(lazy, x) == check_gradient(rosenbrock, x)
        assert counts == {"values": 5, "gradients": 1}


class TestCheckGradient:
    def test_linear_objective_near_machine_epsilon(self):
        w = np.array([1.5, -2.0, 0.5])

        def linear(x):
            return float(w @ x), w.copy()

        assert check_gradient(linear, np.array([0.3, 0.7, -0.2])) < 1e-10

    def test_step_validation(self):
        with pytest.raises(UsageError):
            check_gradient(quadratic, np.zeros(2), h=0.0)

    @pytest.mark.parametrize("method,k", [("logistic_dep", 3), ("beta_dep", 3)])
    def test_dependent_nll_gradients(self, method, k):
        rng = np.random.default_rng(99)
        samples = random_matched_samples(rng, 150, extreme_scores=False)
        members = ("confidence", "cx", "cy")[:k]
        encoding = "logit" if method.startswith("logistic") else "probability"
        fs = FeatureSet(members=members, confidence_encoding=encoding)
        x = build_feature_matrix(samples, fs)
        m = labels(samples)
        objective = nll_objective(method, x, m)
        for _ in range(20):
            theta = identity_theta(method, k) + rng.uniform(-1.0, 1.0, theta_size(method, k))
            assert check_gradient(objective, theta, 1e-5) < 1e-4
