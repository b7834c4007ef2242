"""Deterministic quasi-Newton minimizer with backtracking line search.

The objective callable must return ``(value, gradient)``. BFGS inverse
Hessian updates are combined with an Armijo backtracking line search, which
keeps the accepted objective sequence monotone and the whole trajectory
bit-reproducible for fixed inputs. Budget exhaustion yields a non-converged
report rather than an exception; non-finite values at an accepted iterate
raise :class:`NumericalFailureError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailureError, UsageError

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and step-control settings for :func:`minimize`."""

    max_iterations: int = 2000
    gradient_tolerance: float = 1e-6
    initial_step: float = 1.0
    backtrack_factor: float = 0.5
    sufficient_decrease: float = 1e-4
    max_backtracks: int = 60
    # Cap on the infinity norm of a single step; keeps badly scaled
    # quasi-Newton directions from overshooting into overflow territory.
    max_step: float = 20.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise UsageError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0:
            raise UsageError("gradient_tolerance must be > 0")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise UsageError("backtrack_factor must lie in (0, 1)")
        if self.initial_step <= 0 or self.sufficient_decrease <= 0:
            raise UsageError("initial_step and sufficient_decrease must be > 0")
        if self.max_step <= 0:
            raise UsageError("max_step must be > 0")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one minimization run."""

    final_value: float
    gradient_norm: float
    iterations: int
    converged: bool
    wall_time_s: float


def _check_finite(value: float, grad: np.ndarray, x: np.ndarray, where: str) -> None:
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NumericalFailureError(
            f"objective or gradient non-finite at {where} (value={value!r})", iterate=x.copy()
        )


def minimize(
    objective: Objective,
    x0: np.ndarray,
    cfg: OptimizerConfig = OptimizerConfig(),
    callback: Callable[[np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Minimize a smooth objective from ``x0``; returns the iterate and a report.

    ``callback``, when given, is invoked with every accepted iterate and its
    objective value.
    """
    start = time.perf_counter()
    x = np.array(x0, dtype=np.float64).copy()
    f, g = objective(x)
    g = np.asarray(g, dtype=np.float64)
    _check_finite(f, g, x, "the starting point")

    n = x.size
    h_inv = np.eye(n)
    first_update = True
    iterations = 0
    converged = bool(np.max(np.abs(g)) <= cfg.gradient_tolerance) if n else True

    while not converged and iterations < cfg.max_iterations:
        d = -h_inv @ g
        gd = float(g @ d)
        if gd >= 0.0 or not np.all(np.isfinite(d)):
            h_inv = np.eye(n)
            d = -g
            gd = float(g @ d)

        step = cfg.initial_step
        d_inf = float(np.max(np.abs(d)))
        if d_inf * step > cfg.max_step:
            step = cfg.max_step / d_inf
        accepted = False
        for _ in range(cfg.max_backtracks):
            x_new = x + step * d
            f_new, g_new = objective(x_new)
            if np.isfinite(f_new) and f_new <= f + cfg.sufficient_decrease * step * gd:
                accepted = True
                break
            step *= cfg.backtrack_factor
        if not accepted:
            # Line search exhausted at machine precision; stop with whatever
            # gradient norm remains and report non-convergence if above tol.
            break

        g_new = np.asarray(g_new, dtype=np.float64)
        _check_finite(f_new, g_new, x_new, f"accepted iterate {iterations + 1}")
        s = x_new - x
        y = g_new - g
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if callback is not None:
            callback(x.copy(), f)

        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
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


def check_gradient(objective: Objective, x: np.ndarray, h: float = 1e-5) -> float:
    """Compare the analytic gradient against central finite differences.

    Returns the maximum per-coordinate deviation, measured relative to the
    larger of the two gradients' infinity norms so that coordinates with a
    vanishing gradient do not dominate the ratio.
    """
    if h <= 0:
        raise UsageError(f"finite-difference step must be > 0, got {h}")
    x = np.asarray(x, dtype=np.float64)
    _, g = objective(x)
    g = np.asarray(g, dtype=np.float64)
    fd = np.empty_like(g)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        f_plus, _ = objective(x + e)
        f_minus, _ = objective(x - e)
        fd[i] = (f_plus - f_minus) / (2.0 * h)
    scale = max(float(np.max(np.abs(g))) if g.size else 0.0,
                float(np.max(np.abs(fd))) if fd.size else 0.0,
                1e-12)
    return float(np.max(np.abs(fd - g))) / scale if g.size else 0.0
