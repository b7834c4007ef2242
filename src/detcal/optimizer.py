"""Deterministic line-search minimizer: BFGS, or Newton with a given Hessian.

The objective callable must return ``(value, gradient)``, the gradient an
array or a callable that computes it. :func:`minimize` asks for the
gradient only at the start and at each accepted point, so a line-search
trial that the Armijo test rejects costs one value. One driver serves
both directions (Nocedal & Wright, *Numerical Optimization*, ch. 3 and 6):
without a Hessian callable it builds BFGS inverse Hessian updates, and with
one it takes the Newton direction ``-H^-1 g``. Every step goes through the
same capped Armijo backtracking line search, which keeps the accepted
objective sequence monotone and the whole trajectory bit-reproducible for
fixed inputs. Budget exhaustion yields a non-converged report rather than
an exception; non-finite values at an accepted iterate, a singular Newton
system or a non-finite Newton step raise :class:`NumericalFailureError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailureError, UsageError, check_count, check_real

Objective = Callable[[np.ndarray], tuple[float, np.ndarray | Callable[[], np.ndarray]]]

# Line-search settings. A step starts at INITIAL_STEP, capped so that its
# infinity norm stays within MAX_STEP (keeping badly scaled directions from
# overshooting into overflow territory), and shrinks by BACKTRACK_FACTOR
# until it gives the Armijo decrease SUFFICIENT_DECREASE * step * g.d, for
# at most MAX_BACKTRACKS trials.
INITIAL_STEP = 1.0
BACKTRACK_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 60
MAX_STEP = 20.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and stopping tolerance for :func:`minimize`."""

    max_iterations: int = 2000
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        check_count("max_iterations", self.max_iterations, 1, message="max_iterations must be >= 1")
        check_real("gradient_tolerance", self.gradient_tolerance)
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise UsageError(f"gradient_tolerance must be finite and > 0, got {self.gradient_tolerance}")


def check_config(name: str, value) -> OptimizerConfig:
    """``value`` if it is an :class:`OptimizerConfig`, the default settings for None; anything else raises
    :class:`UsageError` naming the setting ``name``."""
    if value is None:
        return OptimizerConfig()
    if not isinstance(value, OptimizerConfig):
        raise UsageError(f"{name} must be an OptimizerConfig or None, got {value!r}")
    return value


@dataclass(frozen=True)
class FitReport:
    """Outcome of one minimization run."""

    final_value: float
    gradient_norm: float
    iterations: int
    converged: bool
    wall_time_s: float


def gradient_array(g) -> np.ndarray:
    """An objective's gradient as a float array: ``g()`` where the objective returned it as a callable."""
    return np.asarray(g() if callable(g) else g, dtype=np.float64)


def _check_finite(value: float, g_inf: float, x: np.ndarray, iteration: int | None) -> None:
    """Raise unless the value and the gradient's infinity norm (NaN if any entry is) are finite."""
    if not (math.isfinite(value) and math.isfinite(g_inf)):
        where = "the starting point" if iteration is None else f"accepted iterate {iteration}"
        raise NumericalFailureError(
            f"objective or gradient non-finite at {where} (value={value!r})", iterate=x.copy()
        )


def _newton_direction(h: np.ndarray, g: np.ndarray, x: np.ndarray, iteration: int) -> np.ndarray:
    try:
        d = -np.linalg.solve(h, g)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"singular Newton system at iterate {iteration}", iterate=x.copy()
        ) from exc
    if not np.isfinite(d).all():
        raise NumericalFailureError(f"non-finite Newton step at iterate {iteration}", iterate=x.copy())
    return d


def minimize(
    objective: Objective,
    x0: np.ndarray,
    cfg: OptimizerConfig | None = None,
    callback: Callable[[np.ndarray, float], None] | None = None,
    *,
    hessian: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Minimize a smooth objective from ``x0``; returns the iterate and a report.

    A gradient that ``objective`` returns as a callable is called once at
    ``x0`` and once at each accepted iterate, never at a rejected trial
    point. ``hessian``, when given, returns the Hessian at an accepted
    iterate and turns the BFGS direction into the Newton direction. A
    direction that does not descend falls back to steepest descent.
    ``callback``, when given, is invoked with every accepted iterate and its
    objective value.
    ``cfg`` defaults to ``OptimizerConfig()``.
    """
    cfg = check_config("cfg", cfg)
    start = time.perf_counter()
    x = np.array(x0, dtype=np.float64)
    f, g = objective(x)
    g = gradient_array(g)
    n = x.size
    # Infinity norm of the gradient: the stopping test, and NaN or inf
    # exactly when some entry is.
    g_inf = float(abs(g).max()) if n else 0.0
    _check_finite(f, g_inf, x, None)

    h_inv = np.eye(n)
    first_update = True
    iterations = 0
    converged = g_inf <= cfg.gradient_tolerance

    while not converged and iterations < cfg.max_iterations:
        if hessian is None:
            d = -(h_inv @ g)
        else:
            d = _newton_direction(hessian(x), g, x, iterations)
        gd = float(g @ d)
        d_inf = float(abs(d).max())
        if gd >= 0.0 or not math.isfinite(d_inf):
            h_inv = np.eye(n)
            d = -g
            gd = float(g @ d)
            d_inf = g_inf

        step = INITIAL_STEP
        if d_inf * step > MAX_STEP:
            step = MAX_STEP / d_inf
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            f_new, g_new = objective(x_new)
            if math.isfinite(f_new) and f_new <= f + SUFFICIENT_DECREASE * step * gd:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            # Line search exhausted at machine precision; stop with whatever
            # gradient norm remains and report non-convergence if above tol.
            break

        g_new = gradient_array(g_new)
        g_inf = float(abs(g_new).max())
        _check_finite(f_new, g_inf, x_new, iterations + 1)
        s = x_new - x
        y = g_new - g
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if callback is not None:
            callback(x.copy(), f)

        if hessian is None:
            sy = float(s @ y)
            if sy > 1e-10 * math.sqrt(s @ s) * math.sqrt(y @ y):
                if first_update:
                    # Scale the initial inverse Hessian to the first curvature
                    # pair; standard remedy for badly scaled objectives.
                    h_inv = (sy / float(y @ y)) * np.eye(n)
                    first_update = False
                rho = 1.0 / sy
                hy = h_inv @ y
                # h_inv - rho (s hy^T + hy s^T) + (rho^2 y.hy + rho) s s^T;
                # the broadcast products are np.outer's, without its overhead.
                shy = s[:, None] * hy
                h_inv = (
                    h_inv
                    - rho * (shy + shy.T)
                    + (rho * rho * float(y @ hy) + rho) * (s[:, None] * s)
                )
        converged = g_inf <= cfg.gradient_tolerance

    report = FitReport(
        final_value=float(f),
        gradient_norm=g_inf,
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
    g = gradient_array(objective(x)[1])
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
