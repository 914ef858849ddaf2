"""Generalized linear model core.

Supplies the three nuisance models of the pipeline: the participation
(sampling) score, the treatment propensity score, and the per-arm
outcome regressions.

Only the two links the pipeline needs are implemented: logit for
Bernoulli responses and identity for Gaussian responses. The Bernoulli
solver is Newton's method with step-halving on the log-likelihood
(iteratively reweighted least squares); the Gaussian fit is the exact
normal-equation solution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Dataset
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    EmptyGroupError,
    SeparationError,
    SingularInformationError,
)

SCORE_TOL = 1e-8
MAX_ITER = 100
COEF_BOUND = 30.0


class GlmFamily(enum.Enum):
    BERNOULLI_LOGIT = "bernoulli-logit"
    GAUSSIAN_IDENTITY = "gaussian-identity"


@dataclass(frozen=True)
class GlmFit:
    """Fitted GLM: coefficients plus convergence metadata.

    ``fixed`` marks a degenerate fit whose prediction was imposed rather
    than estimated (known randomization probability); such fits carry no
    score equations.
    """

    coefficients: np.ndarray
    family: GlmFamily
    converged: bool
    iterations: int
    log_likelihood: float
    fixed: bool = False

    @property
    def q(self) -> int:
        return self.coefficients.shape[0]


def _check_design(x: np.ndarray, y: np.ndarray, family: GlmFamily):
    if x.ndim != 2:
        raise DimensionError("design matrix must be 2-d")
    n, q = x.shape
    if y.shape != (n,):
        raise DimensionError(f"response length {y.shape} does not match {n} rows")
    if n < q:
        raise DataError(f"need at least q={q} observations, got {n}")
    if family is GlmFamily.BERNOULLI_LOGIT:
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DataError("bernoulli-logit requires responses in {0, 1}")
    elif not np.all(np.isfinite(y)):
        raise DataError("gaussian-identity requires finite responses")


def _bernoulli_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # y*eta - log(1 + exp(eta)), numerically stable
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def fit_glm(x_matrix: np.ndarray, y: np.ndarray, family: GlmFamily) -> GlmFit:
    """Maximum-likelihood fit of the given family.

    Convergence means the score (log-likelihood gradient) has max-norm
    at most 1e-8. Bernoulli fits whose coefficients leave [-30, 30]
    raise SeparationError whether or not the gradient test passes:
    separation can satisfy it once probabilities saturate, and the
    downstream inverse-probability weights would overflow either way.
    """
    x = np.asarray(x_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_design(x, y, family)
    n, q = x.shape

    if family is GlmFamily.GAUSSIAN_IDENTITY:
        xtx = x.T @ x
        try:
            coef = np.linalg.solve(xtx, x.T @ y)
        except np.linalg.LinAlgError:
            raise SingularInformationError("collinear design in gaussian fit")
        if not np.all(np.isfinite(coef)):
            raise SingularInformationError("non-finite gaussian solution")
        resid = y - x @ coef
        sigma2 = max(float(resid @ resid) / n, 1e-300)
        ll = -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)
        return GlmFit(coef, family, True, 1, ll)

    coef = np.zeros(q)
    ll = _bernoulli_loglik(x @ coef, y)
    converged = False
    steps = 0
    while True:
        g = x.T @ (y - expit(x @ coef))
        if np.max(np.abs(g)) <= SCORE_TOL:
            converged = True
            break
        if steps >= MAX_ITER:
            break
        p = expit(x @ coef)
        w = p * (1.0 - p)
        h = (x * w[:, None]).T @ x
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            raise SingularInformationError("singular information matrix in logistic fit")
        if not np.all(np.isfinite(step)):
            raise SingularInformationError("non-finite Newton step in logistic fit")
        # step-halving: never accept a likelihood decrease
        t = 1.0
        for _ in range(40):
            ll_new = _bernoulli_loglik(x @ (coef + t * step), y)
            if ll_new >= ll - 1e-12:
                break
            t *= 0.5
        coef = coef + t * step
        ll = ll_new
        steps += 1
    # separation pushes coefficients to +-inf; the gradient may still reach
    # the tolerance once probabilities saturate, so guard on magnitude alone
    if np.max(np.abs(coef)) > COEF_BOUND:
        raise SeparationError(
            "logistic fit diverged (|coefficient| > 30); classes appear separated"
        )
    return GlmFit(coef, family, converged, steps, ll)


def predict_mean(fit: GlmFit, x: np.ndarray):
    """Inverse-link of the linear predictor; scalar for a single row."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xm = np.atleast_2d(x)
    if xm.shape[1] != fit.q:
        raise DimensionError(
            f"covariate length {xm.shape[1]} does not match fit dimension {fit.q}"
        )
    eta = xm @ fit.coefficients
    mean = expit(eta) if fit.family is GlmFamily.BERNOULLI_LOGIT else eta
    return float(mean[0]) if single else mean


def fit_sampling_score(data: Dataset) -> GlmFit:
    """Logistic regression of participation on covariates, all rows pooled."""
    data.require_both_samples()
    return fit_glm(data.x, data.s, GlmFamily.BERNOULLI_LOGIT)


def fit_propensity_score(data: Dataset, known_probability: float | None = None) -> GlmFit:
    """Treatment model among trial rows.

    With ``known_probability`` (randomized assignment) the returned fit
    predicts that probability everywhere and is flagged ``fixed``: it
    contributes no score equations to stacked systems.
    """
    if known_probability is not None:
        p = float(known_probability)
        if not 0.0 < p < 1.0:
            raise ConfigError("known_probability must lie strictly in (0, 1)")
        coef = np.zeros(data.q)
        coef[0] = np.log(p / (1.0 - p))
        return GlmFit(coef, GlmFamily.BERNOULLI_LOGIT, True, 0, float("nan"), fixed=True)
    trial = data.trial_mask
    if not trial.any():
        raise DataError("no trial rows to fit a propensity score on")
    a = data.a[trial]
    if a.min() == a.max():
        raise DataError("both treatment arms must be present among trial rows")
    return fit_glm(data.x[trial], a, GlmFamily.BERNOULLI_LOGIT)


def fit_outcome_models(data: Dataset, family: GlmFamily) -> tuple[GlmFit, GlmFit]:
    """Per-arm outcome regressions (treated fit, control fit) on trial rows."""
    trial = data.trial_mask
    treated = trial & (data.a == 1)
    control = trial & (data.a == 0)
    if not treated.any() or not control.any():
        raise EmptyGroupError("each treatment arm needs at least one trial row")
    fit1 = fit_glm(data.x[treated], data.y[treated], family)
    fit0 = fit_glm(data.x[control], data.y[control], family)
    return fit1, fit0
