"""The five calibration map families under a common fit/apply interface.

Parametric maps produce a calibrated confidence by passing a log-likelihood
ratio through the logistic function:

* independent logistic: a linear ratio ``s.w + c`` over the logit-encoded
  input (Platt scaling extended to box features), K+1 parameters;
* independent beta: ``c + sum_k a_k log(s_k) - b_k log(1 - s_k)`` with the
  confidence-dimension parameters kept positive for monotony, 2K+1
  parameters;
* dependent logistic: the ratio of two multivariate normal densities, with
  each inverse covariance parameterized as ``W W^T`` to stay symmetric
  positive semidefinite, 2(K^2+K)+1 parameters;
* dependent beta: the ratio of two Libby-Novick generalized beta densities
  over the odds-transformed inputs, 4(K+1)+1 parameters.

Multidimensional histogram binning instead stores the observed precision of
every joint (confidence x box) cell and assigns it directly, falling back to
coarser marginal tables for cells unseen in training.

Everything that tells the four parametric families apart lives in one
record per family, ``_FAMILIES[method]``: parameter dataclass, confidence
encoding, field shapes, exp-reparameterized slots, identity block, ratio,
objective and fitter. Parameter validation and counts, packing to the
optimizer vector (the fields in declaration order, ``c`` last), the identity
start and the JSON form are generic walks over that record and
``dataclasses.fields``.

All parametric fits minimize the mean binary negative log-likelihood plus a
tiny L2 ridge through one call of :func:`detcal.optimizer.minimize` and are
deterministic for a fixed configuration. Three ratios are linear in their
coefficients, so those fits are one logistic regression over a design,
:func:`_linear_problem`, which passes its Hessian so the minimizer takes
Newton steps. Independent logistic uses ``[x, 1]`` and independent beta
``[log x, -log(1 - x), 1]``, both from the identity map; beta keeps ``a[0]``
and ``b[0]`` as exp slots, whose negative curvature away from the optimum
the Hessian drops. Dependent logistic is a full quadratic form in the
features: it uses ``[1, u_i, u_i u_j]`` over the standardized features
``u``, with unit-RMS columns, starts from zero, puts the ridge on those
design coefficients, and maps the solution back to the stored normal
parameters. The dependent beta family passes no Hessian and takes BFGS
steps from the identity map. Its objective is non-convex, but each
evaluation is a single pass: the odds transform is computed once per fit,
and the ratio and its gradient share every per-class term. Every objective
shares one NLL/residual kernel, which computes ``exp(-|z|)`` once for both
the loss and ``sigmoid(z) - m``.

Model files are validated on load; a malformed one raises a
:class:`DataError` naming the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DataError,
    DegenerateDataError,
    UnsupportedOperationError,
    UsageError,
    ValidationError,
    check_count,
)
from .detections import _category_id, _real, _whole_number, read_json
from .features import DEFAULT_CLIP, FeatureSet, SampleColumns, build_feature_matrix, columns, labels, raw_values
from .matching import MatchedSample
from .metrics import bin_indices, check_grid, dense_counts
from .optimizer import OptimizerConfig, minimize

METHODS = ("hist_binning", "logistic_indep", "logistic_dep", "beta_indep", "beta_dep")
PARAMETRIC_METHODS = ("logistic_indep", "logistic_dep", "beta_indep", "beta_dep")

POSITIVITY_FLOOR = 1e-8
# Large enough to keep every family's optimum at reachable parameter values,
# small enough to move any D-ECE by well under its measurement resolution.
DEFAULT_RIDGE = 1e-5
SCHEMA_VERSION = 1
# Calibration-side bins per dimension for histogram binning, keyed by K.
DEFAULT_CALIBRATION_BINS = {1: 15, 3: 5, 5: 3}


def _ro(a, dtype=np.float64) -> np.ndarray:
    """Copy into a read-only array so frozen parameter blocks stay immutable."""
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _ParamBlock:
    """Validation shared by the parametric blocks, driven by the family table.

    Every field but ``c`` becomes a read-only float array and ``c`` a float;
    the field shapes must match the family's at K >= 1, every entry must be
    finite, and the entries kept positive by the exp reparameterization must
    be > 0.
    """

    def __post_init__(self):
        fam = next(f for f in _FAMILIES.values() if f.params is type(self))
        names = [f.name for f in fields(self)]
        for name in names[:-1]:
            object.__setattr__(self, name, _ro(getattr(self, name)))
        object.__setattr__(self, "c", float(self.c))
        k = self.k
        shapes = tuple(np.shape(getattr(self, name)) for name in names)
        if k < 1 or shapes != fam.shapes(k):
            raise ValidationError(
                f"{type(self).__name__} fields {names} have shapes {shapes}, "
                f"which fit no dimension K >= 1"
            )
        flat = np.concatenate([np.ravel(getattr(self, name)) for name in names])
        if not np.isfinite(flat).all():
            raise ValidationError(f"{type(self).__name__} parameters must be finite")
        if not np.all(flat[fam.exp_slots(k)] > 0.0):
            raise ValidationError(f"{type(self).__name__} constrained entries must be > 0")


@dataclass(frozen=True)
class LogisticIndepParams(_ParamBlock):
    """Weights and bias of the linear log-likelihood ratio."""

    w: np.ndarray
    c: float

    @property
    def k(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class BetaIndepParams(_ParamBlock):
    """Per-dimension beta log terms; a[0], b[0] > 0 keeps the map monotone in confidence."""

    a: np.ndarray
    b: np.ndarray
    c: float

    @property
    def k(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class LogisticDepParams(_ParamBlock):
    """Class-conditional normal parameters; vinv stores W with inverse covariance W W^T."""

    mu_pos: np.ndarray
    mu_neg: np.ndarray
    vinv_pos: np.ndarray
    vinv_neg: np.ndarray
    c: float

    @property
    def k(self) -> int:
        return self.mu_pos.size


@dataclass(frozen=True)
class BetaDepParams(_ParamBlock):
    """Generalized-beta shape parameters, index 0 is the shared normalization dimension."""

    alpha_pos: np.ndarray
    beta_pos: np.ndarray
    alpha_neg: np.ndarray
    beta_neg: np.ndarray
    c: float

    @property
    def k(self) -> int:
        return self.alpha_pos.size - 1


@dataclass(frozen=True)
class HistBinningParams:
    """Joint precision lookup table plus its marginal fallback chain.

    ``tables[j]`` covers the first ``j + 1`` feature dimensions; empty cells
    hold NaN. ``tables[-1]`` is the full joint table. The chain ends at the
    global training precision.
    """

    bin_counts: tuple[int, ...]
    tables: tuple[np.ndarray, ...]
    global_precision: float

    def __post_init__(self):
        counts = tuple(int(c) for c in self.bin_counts)
        object.__setattr__(self, "bin_counts", counts)
        if any(c < 1 for c in counts):
            raise ValidationError(f"bin counts must be >= 1, got {counts}")
        tables = tuple(_ro(t) for t in self.tables)
        object.__setattr__(self, "tables", tables)
        if len(tables) != len(counts):
            raise ValidationError("need one fallback table per dimension")
        for j, table in enumerate(tables):
            if table.shape != counts[: j + 1]:
                raise ValidationError(
                    f"table {j} has shape {table.shape}, expected {counts[: j + 1]}"
                )
            stored = table[~np.isnan(table)]  # NaN marks an empty cell
            if stored.size and (stored.min() < 0.0 or stored.max() > 1.0):
                raise ValidationError("stored precisions must lie in [0, 1]")
        gp = float(self.global_precision)
        if not 0.0 <= gp <= 1.0:
            raise ValidationError(f"global precision must lie in [0, 1], got {gp}")
        object.__setattr__(self, "global_precision", gp)

    @property
    def k(self) -> int:
        return len(self.bin_counts)

    @property
    def total_bins(self) -> int:
        return math.prod(self.bin_counts)


@dataclass(frozen=True)
class FitMetadata:
    """Bookkeeping captured at fit time; serialized with the model."""

    n_samples: int
    final_nll: float | None
    n_iterations: int
    converged: bool


@dataclass(frozen=True)
class CalibrationModel:
    """A fitted calibration map with its feature set and parameter block."""

    method: str
    feature_set: FeatureSet
    params: object
    category_id: int | None = None
    fit_metadata: FitMetadata = FitMetadata(0, None, 0, True)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown calibration method {self.method!r}")
        expected = _FAMILIES[self.method].params if self.method in _FAMILIES else HistBinningParams
        if not isinstance(self.params, expected):
            raise ValidationError(
                f"method {self.method!r} expects {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )
        if self.params.k != self.feature_set.k:
            raise ValidationError(
                f"parameter block has K={self.params.k} but the feature set "
                f"has K={self.feature_set.k}"
            )
        expected_enc = expected_encoding(self.method)
        if self.feature_set.confidence_encoding != expected_enc:
            raise ValidationError(
                f"method {self.method!r} consumes {expected_enc}-encoded confidence, "
                f"got {self.feature_set.confidence_encoding!r}"
            )

    @property
    def n_params(self) -> int:
        """Number of fitted parameters (table size for histogram binning)."""
        if self.method in _FAMILIES:
            return theta_size(self.method, self.feature_set.k)
        return self.params.total_bins


def expected_encoding(method: str) -> str:
    """Confidence encoding each method consumes: logit for the logistic family."""
    if method not in METHODS:
        raise UsageError(f"unknown calibration method {method!r}")
    return _FAMILIES[method].encoding if method in _FAMILIES else "probability"


def _normalize_feature_set(method: str, fs: FeatureSet | Sequence[str]) -> FeatureSet:
    members = fs.members if isinstance(fs, FeatureSet) else tuple(fs)
    return FeatureSet(members=members, confidence_encoding=expected_encoding(method))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Log-likelihood ratios


def _llr_logistic_indep(p: LogisticIndepParams, x: np.ndarray) -> np.ndarray:
    return x @ p.w + p.c


def _llr_beta_indep(p: BetaIndepParams, x: np.ndarray) -> np.ndarray:
    return np.log(x) @ p.a + np.log1p(-x) @ (-p.b) + p.c


def _llr_logistic_dep(p: LogisticDepParams, x: np.ndarray) -> np.ndarray:
    y_pos = (x - p.mu_pos) @ p.vinv_pos
    y_neg = (x - p.mu_neg) @ p.vinv_neg
    return 0.5 * ((y_neg * y_neg).sum(axis=1) - (y_pos * y_pos).sum(axis=1)) + p.c


def _llr_beta_dep(p: BetaDepParams, x: np.ndarray) -> np.ndarray:
    s_star = x / (1.0 - x)
    log_s_star = np.log(s_star)
    lam_pos, lam_neg = p.beta_pos[1:] / p.beta_pos[0], p.beta_neg[1:] / p.beta_neg[0]
    t_pos = s_star @ lam_pos
    t_neg = s_star @ lam_neg
    a_pos, a_neg = p.alpha_pos[1:], p.alpha_neg[1:]
    const = float(a_pos @ np.log(lam_pos) - a_neg @ np.log(lam_neg))
    return (
        p.c
        + const
        + log_s_star @ (a_pos - a_neg)
        + p.alpha_neg.sum() * np.log1p(t_neg)
        - p.alpha_pos.sum() * np.log1p(t_pos)
    )


def loglik_ratio(model: CalibrationModel, s: np.ndarray) -> float | np.ndarray:
    """Log-likelihood ratio of one feature vector (or a (n, K) batch).

    The input must be built with the model's feature set and encoding.
    Histogram binning has no likelihood-ratio form and raises
    :class:`UnsupportedOperationError`.
    """
    if model.method == "hist_binning":
        raise UnsupportedOperationError("histogram binning defines no log-likelihood ratio")
    s = np.asarray(s, dtype=np.float64)
    single = s.ndim == 1
    x = s[None, :] if single else s
    if x.ndim != 2 or x.shape[1] != model.feature_set.k:
        raise UsageError(
            f"feature input of shape {s.shape} does not match K={model.feature_set.k}"
        )
    z = _FAMILIES[model.method].llr(model.params, x)
    return float(z[0]) if single else z


def calibrate_matrix(model: CalibrationModel, x: np.ndarray) -> np.ndarray:
    """Calibrated scores for a prebuilt feature matrix in the model's encoding; overflow saturates.

    A histogram model raises :class:`UsageError` on a NaN or infinite entry.
    """
    if model.method == "hist_binning":
        return _hist_lookup(model.params, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return sigmoid(_FAMILIES[model.method].llr(model.params, np.asarray(x, dtype=np.float64)))


def apply(
    model: CalibrationModel, samples: Sequence[MatchedSample] | SampleColumns, eps: float = DEFAULT_CLIP
) -> np.ndarray:
    """Calibrated score for every sample, in input order."""
    if model.method == "hist_binning":
        x = raw_values(samples, model.feature_set.members)
    else:
        x = build_feature_matrix(samples, model.feature_set, eps)
    return calibrate_matrix(model, x)


# ---------------------------------------------------------------------------
# Histogram binning


def _hist_lookup(params: HistBinningParams, values: np.ndarray) -> np.ndarray:
    """Per-sample precision lookup with the marginal fallback chain."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != params.k:
        raise UsageError(f"value matrix of shape {values.shape} does not match K={params.k}")
    idx = bin_indices(values, params.bin_counts)
    out = params.tables[-1][tuple(idx.T)]
    for j in range(params.k - 2, -1, -1):
        missing = np.isnan(out)
        if not missing.any():
            break
        out = np.where(missing, params.tables[j][tuple(idx[:, : j + 1].T)], out)
    return np.where(np.isnan(out), params.global_precision, out)


def fit_hist_binning(
    samples: Sequence[MatchedSample] | SampleColumns,
    fs: FeatureSet | Sequence[str],
    bin_counts: int | Sequence[int] | None = None,
    *,
    category_id: int | None = None,
) -> CalibrationModel:
    """Fit multidimensional histogram binning over the given feature subset.

    ``bin_counts`` may be one count broadcast over all dimensions or one per
    dimension; the default follows the evaluation protocol (15 / 5 / 3 bins
    per dimension at K = 1 / 3 / 5). Fallback tables are built by
    marginalizing dimensions right to left down to the global precision.
    """
    if not samples:
        raise DataError("cannot fit histogram binning on an empty sample list")
    fs = _normalize_feature_set("hist_binning", fs)
    k = fs.k
    if bin_counts is None:
        if k not in DEFAULT_CALIBRATION_BINS:
            raise UsageError(f"no default calibration bin count for K={k}; pass bin_counts")
        counts = (DEFAULT_CALIBRATION_BINS[k],) * k
    elif np.ndim(bin_counts) == 0:
        counts = (bin_counts,) * k
    else:
        counts = tuple(bin_counts)
        if len(counts) != k:
            raise UsageError(f"{len(counts)} bin counts given for K={k} dimensions")
    below = f"bin count must be >= 1, got {np.asarray(counts)}"
    counts = tuple(check_count("bin count", c, 1, message=below) for c in counts)
    check_grid(counts, UsageError)

    cols = columns(samples)
    idx = bin_indices(raw_values(cols, fs.members), counts)
    m = labels(cols).astype(np.float64)

    tables = []
    # The joint table first, so a grid too large to allocate fails before any other.
    for j in range(k, 0, -1):
        shape = counts[:j]
        flat = np.ravel_multi_index(tuple(idx[:, :j].T), shape) if j > 1 else idx[:, 0]
        occ, m_sum = dense_counts(flat, shape, UsageError, m)
        occ = occ.astype(np.float64)
        with np.errstate(invalid="ignore"):
            table = np.where(occ > 0, m_sum / np.where(occ > 0, occ, 1.0), np.nan)
        tables.append(table.reshape(shape))

    params = HistBinningParams(
        bin_counts=counts, tables=tuple(reversed(tables)), global_precision=float(m.mean())
    )
    return CalibrationModel(
        method="hist_binning",
        feature_set=fs,
        params=params,
        category_id=category_id,
        fit_metadata=FitMetadata(len(samples), None, 0, True),
    )


# ---------------------------------------------------------------------------
# Parametric objectives: mean binary NLL over unconstrained parameters


def _nll_and_residual(z: np.ndarray, m: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary NLL ``mean(softplus(z) - m z)`` and residual ``sigmoid(z) - m``.

    ``e = exp(-|z|)`` is computed once and serves both: ``softplus(z) =
    max(z, 0) + log1p(e)``, and ``sigmoid(z)`` is ``1 / (1 + e)`` for
    ``z >= 0`` and ``e / (1 + e)`` otherwise, so neither overflows.
    """
    e = np.exp(-np.abs(z))
    nll = float((np.maximum(z, 0.0) + np.log1p(e) - m * z).sum() / z.size)
    q = np.where(z >= 0.0, 1.0, e) / (1.0 + e)
    return nll, q - m


def _family(method: str) -> _Family:
    try:
        return _FAMILIES[method]
    except (KeyError, TypeError):
        raise UsageError(f"method {method!r} has no parametric form") from None


def theta_size(method: str, k: int) -> int:
    """Length of the optimizer vector of a parametric method at dimension K."""
    return sum(math.prod(shape) for shape in _family(method).shapes(k))


def pack_params(method: str, params) -> np.ndarray:
    """Flatten a parameter block into the unconstrained optimizer vector."""
    fam = _family(method)
    theta = np.concatenate([np.ravel(getattr(params, f.name)) for f in fields(fam.params)])
    slots = fam.exp_slots(params.k)
    theta[slots] = np.log(np.maximum(theta[slots] - POSITIVITY_FLOOR, 1e-300))
    return theta


def unpack_params(method: str, theta: np.ndarray, k: int):
    """Rebuild the constrained parameter block from the optimizer vector."""
    fam = _family(method)
    theta = np.array(theta, dtype=np.float64)
    if theta.size != theta_size(method, k):
        raise UsageError(
            f"parameter vector of length {theta.size} does not match "
            f"{method} at K={k} ({theta_size(method, k)} expected)"
        )
    slots = fam.exp_slots(k)
    with np.errstate(over="ignore"):  # an infinite entry fails the block's own check
        theta[slots] = POSITIVITY_FLOOR + np.exp(theta[slots])
    values, offset = {}, 0
    for f, shape in zip(fields(fam.params), fam.shapes(k)):
        size = math.prod(shape)
        values[f.name] = theta[offset : offset + size].reshape(shape)
        offset += size
    return fam.params(**values)


def identity_theta(method: str, k: int) -> np.ndarray:
    """Parameter vector reproducing the identity map on the confidence dimension."""
    return pack_params(method, _family(method).identity(k))


def _ridged(ridge: float, nll_and_grad):
    """Objective ``nll_and_grad(theta) + ridge |theta|^2`` with its gradient.

    Extreme line-search trial points may overflow; the resulting non-finite
    values are rejected by the optimizer, so the warnings are noise.
    """
    two_ridge = 2.0 * ridge

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            nll, g = nll_and_grad(theta)
            return nll + ridge * float(theta @ theta), g + two_ridge * theta

    return objective


def _last_point(evaluate: Callable[[np.ndarray], Any]) -> Callable[[np.ndarray], Any]:
    """``evaluate`` with a one-entry cache, shared by an objective and its Hessian.

    :func:`~detcal.optimizer.minimize` asks for the Hessian at the point the
    objective evaluated last. A call with that same array, still holding the
    same values, returns the stored result instead of evaluating again.
    """
    last: tuple | None = None  # (theta, a copy of its values, result)

    def cached(theta: np.ndarray):
        nonlocal last
        if last is None or theta is not last[0] or not np.array_equal(theta, last[1]):
            last = (theta, theta.copy(), evaluate(theta))
        return last[2]

    return cached


# Rows per block of the Gauss-Newton product: the weighted copy of the
# design is one block, never all n rows. At lc-dep's widest design (21
# columns) a block is 168 KiB, and products of this size ran faster than
# one product over all rows or blocks of 4,096 rows.
_GN_BLOCK = 1024


def _gauss_newton(a: np.ndarray, r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a^T diag(q (1 - q)) a / n`` with ``q = r + m``, ``r`` the NLL kernel's residual.

    The Gauss-Newton part of the Hessian of the mean NLL of a ratio that is
    linear in its coefficients over the design ``a``, summed over blocks of
    :data:`_GN_BLOCK` rows.
    """
    h = np.zeros((a.shape[1], a.shape[1]))
    for start in range(0, a.shape[0], _GN_BLOCK):
        rows = slice(start, start + _GN_BLOCK)
        q = r[rows] + m[rows]
        h += np.multiply(a[rows], (q * (1.0 - q))[:, None]).T @ a[rows]
    h /= a.shape[0]
    return h


def _linear_problem(a: np.ndarray, m: np.ndarray, ridge: float, slots: Sequence[int] = ()):
    """Ridged objective and Hessian of a ratio linear in its coefficients over the design ``a``.

    The ratio is ``a @ phi``, where ``phi`` equals ``theta`` except that the
    entries in ``slots`` hold ``POSITIVITY_FLOOR + exp(theta)``. With ``D``
    the diagonal of ``exp(theta)`` on the slots and 1 elsewhere, the gradient
    is ``D a^T r / n`` and the Hessian ``D a^T diag(q (1 - q)) a D / n + 2
    ridge I``, with ``q = sigmoid(a @ phi)`` and ``r = q - m``, plus the
    chain-rule term of each slot on its diagonal: the NLL's own gradient
    there, clipped at 0 so the Hessian stays positive definite away from the
    optimum. At the optimum that term equals ``-2 ridge theta``, so the clip
    moves the Hessian by at most that much. One evaluation per point serves
    the objective and the Hessian.
    """
    n = a.shape[0]
    slots = list(slots)  # a list: an empty one indexes no entry, where ``theta[()]`` is all of them

    def evaluate(theta):
        e = np.exp(theta[slots])
        phi = theta.copy()
        phi[slots] = POSITIVITY_FLOOR + e
        nll, r = _nll_and_residual(a @ phi, m)
        g = a.T @ r / n
        g[slots] *= e
        return nll, g, r, e

    point = _last_point(evaluate)

    def hessian(theta):
        _, g, r, e = point(theta)
        h = _gauss_newton(a, r, m)
        h[slots] *= e[:, None]
        h[:, slots] *= e
        h[slots, slots] += np.maximum(g[slots], 0.0)
        h.flat[:: h.shape[0] + 1] += 2.0 * ridge
        return h

    return _ridged(ridge, lambda theta: point(theta)[:2]), hessian


def _logistic_indep_problem(x: np.ndarray, m: np.ndarray, ridge: float):
    """The independent logistic map: :func:`_linear_problem` over ``[x, 1]``."""
    return _linear_problem(np.column_stack([x, np.ones(len(x))]), m, ridge)


def _beta_indep_problem(x: np.ndarray, m: np.ndarray, ridge: float):
    """The independent beta map: :func:`_linear_problem` over ``[log x, -log(1 - x), 1]``,
    with ``a[0]`` and ``b[0]`` as exp slots.

    The design is written column block by column block into one array.
    """
    k = x.shape[1]
    a = np.empty((x.shape[0], 2 * k + 1))
    np.log(x, out=a[:, :k])
    b = a[:, k:-1]
    np.negative(x, out=b)
    np.log1p(b, out=b)
    np.negative(b, out=b)
    a[:, -1] = 1.0
    return _linear_problem(a, m, ridge, slots=[0, k])


def _logistic_dep_problem(x: np.ndarray, m: np.ndarray, ridge: float):
    """Reference objective over the normal parameters, with no Hessian; fits use :func:`_fit_quadratic_newton`."""
    n, k = x.shape

    def nll_and_grad(theta):
        p = unpack_params("logistic_dep", theta, k)
        nll, r = _nll_and_residual(_llr_logistic_dep(p, x), m)
        d_pos, d_neg = x - p.mu_pos, x - p.mu_neg
        y_pos, y_neg = d_pos @ p.vinv_pos, d_neg @ p.vinv_neg
        return nll, np.concatenate([
            p.vinv_pos @ (y_pos.T @ r) / n,
            -(p.vinv_neg @ (y_neg.T @ r)) / n,
            (-(d_pos.T @ (r[:, None] * y_pos)) / n).ravel(),
            ((d_neg.T @ (r[:, None] * y_neg)) / n).ravel(),
            [r.sum() / n],
        ])

    return _ridged(ridge, nll_and_grad), None


def _beta_dep_problem(x: np.ndarray, m: np.ndarray, ridge: float):
    """Single-pass NLL and gradient of the dependent beta map over its unconstrained vector, with no Hessian.

    ``s* = x / (1 - x)`` and its log are computed once per fit, stored
    feature-major so the small products below run along contiguous rows. Per
    evaluation, the two classes' shape blocks are stacked as rows (positive,
    negative), so ``lambda``, ``log lambda``, ``t = s* lambda``, ``log1p(t)``
    and ``1 / (1 + t)`` are each computed once and shared by the ratio and
    its gradient. The blocks are read straight from ``theta``: the same ratio
    as :func:`_llr_beta_dep`, without building a :class:`BetaDepParams`.
    """
    n, k = x.shape
    d = k + 1
    s_star = np.ascontiguousarray((x / (1.0 - x)).T)
    s_star_t = s_star.T
    log_s_star = np.log(s_star)
    sign = np.array([1.0, -1.0])
    block_sign = np.repeat(sign, 2)[:, None]

    def nll_and_grad(theta):
        # Rows alpha_pos, beta_pos, alpha_neg, beta_neg; e is also the
        # chain factor of the exponential reparameterization.
        e = np.exp(theta[:-1]).reshape(4, d)
        alpha = POSITIVITY_FLOOR + e[0::2]
        beta = POSITIVITY_FLOOR + e[1::2]
        beta_0 = beta[:, 0]
        a_tail = alpha[:, 1:]
        a_total = alpha.sum(axis=1)
        lam = beta[:, 1:] / beta[:, :1]
        log_lam = np.log(lam)
        t = lam @ s_star
        log1p_t = np.log1p(t)
        inv1p_t = 1.0 / (1.0 + t)
        z = (
            (theta[-1] + float(sign @ (a_tail * log_lam).sum(axis=1)))
            + (sign @ a_tail) @ log_s_star
            - (sign * a_total) @ log1p_t
        )
        nll, r = _nll_and_residual(z, m)
        # Per class, dz/dalpha_0 = -log1p(t), dz/dalpha_j = log lambda_j
        # + log s*_j - log1p(t), and beta acts through lambda = beta_j /
        # beta_0; the negative class enters z with the opposite sign.
        r_mean = r.sum() / n
        lr = log1p_t @ r / n
        scale = a_total / beta_0
        g = np.empty(theta.size)
        g_blocks = g[:-1].reshape(4, d)
        g_alpha, g_beta = g_blocks[0::2], g_blocks[1::2]
        g_alpha[:, 0] = -lr
        g_alpha[:, 1:] = log_lam * r_mean + (log_s_star @ r / n) - lr[:, None]
        g_beta[:, 0] = (scale * ((t * inv1p_t) @ r) / n
                        - a_tail.sum(axis=1) / beta_0 * r_mean)
        g_beta[:, 1:] = (a_tail / beta[:, 1:] * r_mean
                         - scale[:, None] * ((inv1p_t * r) @ s_star_t) / n)
        g_blocks *= block_sign * e
        g[-1] = r_mean
        return nll, g

    return _ridged(ridge, nll_and_grad), None


def nll_objective(method: str, x: np.ndarray, m: np.ndarray, ridge: float = DEFAULT_RIDGE):
    """Mean binary NLL (plus L2 ridge) and its gradient over unconstrained parameters."""
    return _family(method).problem(
        np.asarray(x, dtype=np.float64), np.asarray(m, dtype=np.float64), ridge
    )[0]


# ---------------------------------------------------------------------------
# Dependent logistic: convex logistic regression on the quadratic design


def _standardized_design(x: np.ndarray):
    """Design ``[1, u_i, u_i u_j (i <= j)]`` with unit-RMS columns over the standardized features
    ``u = (x - center) / spread``, and ``center``, ``spread`` and the column scales.

    Over raw features, which may sit far from 0 with a small spread, the
    quadratic design is nearly collinear and even a tiny ridge pulls the fit
    far from the optimum. A feature constant up to rounding carries no
    information and becomes an all-zero column. ``u`` is built in the
    design's linear columns and the products are formed from them, so the
    design is the only n-row array made.
    """
    n, k = x.shape
    iu, ju = np.triu_indices(k)
    a = np.empty((n, 1 + k + iu.size))
    a[:, 0] = 1.0
    u = a[:, 1 : k + 1]
    center = x.mean(axis=0)
    np.subtract(x, center, out=u)
    spread = np.sqrt([np.mean(col * col) for col in u.T])
    flat = spread <= 1e-12 * (1.0 + np.abs(center))
    u[:, flat] = 0.0
    spread[flat] = 1.0
    u /= spread
    for col, (i, j) in enumerate(zip(iu, ju), start=k + 1):
        np.multiply(u[:, i], u[:, j], out=a[:, col])
    scale = np.sqrt(np.einsum("ij,ij->j", a, a) / n)
    scale[scale == 0.0] = 1.0  # all-zero columns of constant features
    a /= scale
    return a, center, spread, scale


def _logistic_dep_params(q: np.ndarray, b: np.ndarray, c0: float) -> LogisticDepParams:
    """Normal-ratio parameters whose LLR is ``x^T q x + b^T x + c0`` for symmetric ``q``.

    With ``q = Q+ - Q-`` split by eigenvalue sign, ``P- = 2 Q+ + I`` and
    ``P+ = 2 Q- + I`` are positive definite and ``(P- - P+) / 2 = q``;
    ``mu- = 0``, ``mu+ = (P+)^-1 b`` and ``c = c0 + mu+^T P+ mu+ / 2`` then give
    the linear and constant terms. The identity cancels exactly; using it
    rather than a tiny epsilon keeps ``mu+`` bounded.
    """
    lam, v = np.linalg.eigh(q)
    p_neg = 2.0 * np.maximum(lam, 0.0) + 1.0
    p_pos = 2.0 * np.maximum(-lam, 0.0) + 1.0
    mu_pos = v @ ((v.T @ b) / p_pos)
    return LogisticDepParams(
        mu_pos=mu_pos,
        mu_neg=np.zeros(b.size),
        vinv_pos=v * np.sqrt(p_pos),
        vinv_neg=v * np.sqrt(p_neg),
        c=c0 + 0.5 * float(mu_pos @ b),
    )


def _logistic_dep_from_coef(
    coef: np.ndarray, center: np.ndarray, spread: np.ndarray
) -> LogisticDepParams:
    """Stored block for the quadratic-form coefficients ``[c0, b, q_ij (i <= j)]``
    over ``u = (x - center) / spread``, mapped back to the raw features."""
    k = center.size
    q = np.zeros((k, k))
    q[np.triu_indices(k)] = coef[k + 1 :]
    p = _logistic_dep_params(0.5 * (q + q.T), coef[1 : k + 1], float(coef[0]))
    return LogisticDepParams(
        mu_pos=center + spread * p.mu_pos,
        mu_neg=center + spread * p.mu_neg,
        vinv_pos=p.vinv_pos / spread[:, None],
        vinv_neg=p.vinv_neg / spread[:, None],
        c=p.c,
    )


def _fit_from_identity(method: str, x: np.ndarray, m: np.ndarray, ridge: float, cfg: OptimizerConfig):
    """Line search over the unconstrained vector from the identity map.

    The steps are Newton steps where the family has a Hessian (lc, bc) and
    BFGS steps otherwise (bc-dep).
    """
    k = x.shape[1]
    objective, hessian = _family(method).problem(x, m, ridge)
    theta, report = minimize(objective, identity_theta(method, k), cfg, hessian=hessian)
    return theta, report, unpack_params(method, theta, k)


def _fit_quadratic_newton(method: str, x: np.ndarray, m: np.ndarray, ridge: float, cfg: OptimizerConfig):
    """Newton on the quadratic design of the standardized features, mapped back to the normal ratio.

    The :func:`_linear_problem` of the design has no exp slots, so it is
    convex and its exact Hessian gives descent directions from the zero start.
    """
    a, center, spread, scale = _standardized_design(x)
    objective, hessian = _linear_problem(a, m, ridge)
    coef, report = minimize(objective, np.zeros(a.shape[1]), cfg, hessian=hessian)
    theta = coef / scale
    return theta, report, _logistic_dep_from_coef(theta, center, spread)


# ---------------------------------------------------------------------------
# The family table


@dataclass(frozen=True)
class _Family:
    """One parametric family. ``shapes(k)`` lists the shape of each field of
    ``params`` in declaration order (``c`` last, shape ``()``); ``exp_slots(k)``
    indexes the optimizer-vector entries stored as ``POSITIVITY_FLOOR +
    exp(theta)``; ``identity(k)`` is the identity map's block and the start
    of :func:`_fit_from_identity`; ``problem(x, m, ridge)`` returns the
    ridged objective of the vector and its Hessian function, or None where
    the family has none, sharing one evaluation per point."""

    params: type
    encoding: str
    shapes: Callable[[int], tuple[tuple[int, ...], ...]]
    exp_slots: Callable[[int], slice | list[int]]
    identity: Callable[[int], object]
    llr: Callable[[object, np.ndarray], np.ndarray]
    problem: Callable
    fit: Callable


_FAMILIES = {
    "logistic_indep": _Family(
        params=LogisticIndepParams, encoding="logit",
        shapes=lambda k: ((k,), ()), exp_slots=lambda k: [],
        identity=lambda k: LogisticIndepParams(w=np.eye(k)[0], c=0.0),
        llr=_llr_logistic_indep, problem=_logistic_indep_problem, fit=_fit_from_identity,
    ),
    "beta_indep": _Family(
        params=BetaIndepParams, encoding="probability",
        shapes=lambda k: ((k,), (k,), ()), exp_slots=lambda k: [0, k],
        identity=lambda k: BetaIndepParams(a=np.eye(k)[0], b=np.eye(k)[0], c=0.0),
        llr=_llr_beta_indep, problem=_beta_indep_problem, fit=_fit_from_identity,
    ),
    "logistic_dep": _Family(
        params=LogisticDepParams, encoding="logit",
        shapes=lambda k: ((k,), (k,), (k, k), (k, k), ()), exp_slots=lambda k: [],
        identity=lambda k: LogisticDepParams(
            np.array([0.5] + [0.0] * (k - 1)), np.array([-0.5] + [0.0] * (k - 1)),
            np.eye(k), np.eye(k), c=0.0,
        ),
        llr=_llr_logistic_dep, problem=_logistic_dep_problem, fit=_fit_quadratic_newton,
    ),
    "beta_dep": _Family(
        params=BetaDepParams, encoding="probability",
        shapes=lambda k: ((k + 1,),) * 4 + ((),), exp_slots=lambda k: slice(0, 4 * (k + 1)),
        identity=lambda k: BetaDepParams(
            1.0 + np.eye(k + 1)[1], np.ones(k + 1), 1.0 + np.eye(k + 1)[0], np.ones(k + 1), c=0.0
        ),
        llr=_llr_beta_dep, problem=_beta_dep_problem, fit=_fit_from_identity,
    ),
}


def fit_parametric(
    method: str,
    samples: Sequence[MatchedSample] | SampleColumns,
    fs: FeatureSet | Sequence[str],
    *,
    config: OptimizerConfig | None = None,
    ridge: float = DEFAULT_RIDGE,
    eps: float = DEFAULT_CLIP,
    category_id: int | None = None,
) -> CalibrationModel:
    """Fit one of the four parametric calibration maps by minimizing the mean NLL.

    Requires both match labels in the training data and a finite ``ridge``
    >= 0. Deterministic for a fixed configuration; raises :class:`ConvergenceError` when the optimizer
    budget runs out before the gradient tolerance is met, and
    :class:`NumericalFailureError` when the iterates stop being finite or a
    Newton system is singular.
    """
    fam = _family(method)
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise UsageError(f"ridge must be finite and >= 0, got {ridge}")
    fs = _normalize_feature_set(method, fs)
    cols = columns(samples)
    x = build_feature_matrix(cols, fs, eps)
    m = labels(cols).astype(np.float64)
    n_pos = int(m.sum())
    if n_pos == 0 or n_pos == len(m):
        raise DegenerateDataError(
            f"parametric fitting needs both match labels; got {n_pos} positives "
            f"out of {len(m)} samples"
        )
    cfg = config or OptimizerConfig()
    # Both fitters stop at finite iterates, so params exist even unconverged.
    theta, report, params = fam.fit(method, x, m, ridge, cfg)
    if not report.converged:
        raise ConvergenceError(
            f"{method} fit did not converge within {cfg.max_iterations} iterations "
            f"(final gradient norm {report.gradient_norm:.3e})",
            iterate=theta,
            gradient_norm=report.gradient_norm,
        )
    return CalibrationModel(
        method=method,
        feature_set=fs,
        params=params,
        category_id=category_id,
        fit_metadata=FitMetadata(
            n_samples=len(samples),
            final_nll=report.final_value,
            n_iterations=report.iterations,
            converged=report.converged,
        ),
    )


def fit(
    method: str,
    samples: Sequence[MatchedSample] | SampleColumns,
    fs: FeatureSet | Sequence[str],
    *,
    bin_counts: int | Sequence[int] | None = None,
    config: OptimizerConfig | None = None,
    ridge: float = DEFAULT_RIDGE,
    eps: float = DEFAULT_CLIP,
    category_id: int | None = None,
) -> CalibrationModel:
    """Dispatch to histogram binning or the parametric fitter by method name."""
    if method == "hist_binning":
        return fit_hist_binning(samples, fs, bin_counts, category_id=category_id)
    return fit_parametric(
        method, samples, fs, config=config, ridge=ridge, eps=eps, category_id=category_id
    )


# ---------------------------------------------------------------------------
# Serialization


def _nested(table: np.ndarray):
    """NaN-free nested lists for JSON: empty cells become null."""
    if table.ndim == 1:
        return [None if math.isnan(v) else float(v) for v in table]
    return [_nested(row) for row in table]


def _unnested(data, shape: tuple[int, ...]) -> np.ndarray:
    flat = np.asarray(data, dtype=object).reshape(-1)
    arr = np.array([np.nan if v is None else _real(v, "table cell") for v in flat], dtype=np.float64)
    return arr.reshape(shape)


def _reals(data, name: str):
    """A JSON number, or nested lists of them, as floats; a bool, a string or null raises ``TypeError``."""
    if isinstance(data, list):
        return [_reals(v, name) for v in data]
    return _real(data, name)


def _count(value, name: str) -> int:
    """A count in a model file: a whole number (see :func:`~detcal.detections._whole_number`), not negative."""
    count = _whole_number(value)
    if count is None or count < 0:
        raise ValidationError(f"{name} must be a whole number >= 0, got {value!r}")
    return count


def _params_to_json(params) -> dict:
    if isinstance(params, HistBinningParams):
        return {
            "bin_counts": list(params.bin_counts),
            "tables": [_nested(t) for t in params.tables],
            "global_precision": params.global_precision,
        }
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}


def _params_from_json(method: str, data: dict):
    if method == "hist_binning":
        counts = tuple(_count(c, "bin count") for c in data["bin_counts"])
        tables = tuple(
            _unnested(t, counts[: j + 1]) for j, t in enumerate(data["tables"])
        )
        return HistBinningParams(
            bin_counts=counts, tables=tables,
            global_precision=_real(data["global_precision"], "global_precision"),
        )
    cls = _FAMILIES[method].params
    return cls(**{f.name: _reals(data[f.name], f.name) for f in fields(cls)})


def model_to_json(model: CalibrationModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "method": model.method,
        "feature_set": {
            "members": list(model.feature_set.members),
            "confidence_encoding": model.feature_set.confidence_encoding,
        },
        "category_id": model.category_id,
        "params": _params_to_json(model.params),
        "fit_metadata": asdict(model.fit_metadata),
    }


def model_from_json(data: dict) -> CalibrationModel:
    """Rebuild a model from its JSON form.

    Any missing, malformed or non-finite field raises :class:`ValidationError`.
    Fields are read by the dataset loaders' rules and never coerced: numbers
    are ints or floats, not bools or strings; counts and ids are whole
    numbers; ``converged`` is a JSON bool, and ``schema_version`` the int 1.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"model must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported model schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    method = data.get("method")
    if method not in METHODS:
        raise ValidationError(f"unknown calibration method {method!r}")
    try:
        fs = FeatureSet(
            members=tuple(data["feature_set"]["members"]),
            confidence_encoding=data["feature_set"]["confidence_encoding"],
        )
        meta_data = data["fit_metadata"]
        final_nll = meta_data["final_nll"]
        converged = meta_data["converged"]
        if type(converged) is not bool:
            raise ValidationError(f"converged must be true or false, got {converged!r}")
        meta = FitMetadata(
            n_samples=_count(meta_data["n_samples"], "n_samples"),
            final_nll=None if final_nll is None else _real(final_nll, "final_nll"),
            n_iterations=_count(meta_data["n_iterations"], "n_iterations"),
            converged=converged,
        )
        params = _params_from_json(method, data["params"])
        category = data["category_id"]
        return CalibrationModel(
            method=method,
            feature_set=fs,
            params=params,
            category_id=None if category is None else _category_id(category),
            fit_metadata=meta,
        )
    except KeyError as exc:
        raise ValidationError(f"model file missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model field: {exc}") from exc


def save_model(model: CalibrationModel, path: str | Path) -> None:
    """Write the model as JSON; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_model(path: str | Path) -> CalibrationModel:
    """Read a model written by :func:`save_model`, validating every field.

    A malformed file raises a :class:`DataError` that names it.
    """
    data = read_json(Path(path))
    try:
        return model_from_json(data)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
