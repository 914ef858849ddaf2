"""Generalized linear model core.

Supplies the three nuisance models of the pipeline: the participation
(sampling) score, the treatment propensity score, and the per-arm
outcome regressions.

Only the two links the pipeline needs are implemented: logit for
Bernoulli responses and identity for Gaussian responses. The Bernoulli
solver is Newton's method (iteratively reweighted least squares) with
step-halving. The log-likelihood is concave, so where its slope along a
step is still nonnegative at the trial point it did not fall anywhere on
the step: that point is accepted on its score alone. A trial point whose
score meets SCORE_TOL is accepted too, since the fit stops there and a
comparison would only weigh rounding. Only otherwise are log-likelihoods
computed and compared, and a trial point where the log-likelihood fell
is halved. The Gaussian fit is the exact normal-equation solution. A fit
does not carry its log-likelihood; ``log_likelihood`` computes it from
the fit and its data for whoever reports it.

The inverse logit, ``expit``, and the log-likelihood run on numpy's vector
``exp`` and ``log1p``: ``expit`` is within a few ulp of
``scipy.special.expit``, whose scalar ``exp`` per element takes up to
three times as long from a few thousand values up. A Bernoulli fit keeps
the design it converged on and its means there, and ``predict_mean``
hands those back for that design, so the pipeline evaluates each score
once per fit.

A Bernoulli fit starts at zero unless it is given a ``start``. The
bootstrap starts each replicate's sampling and propensity refits at the
full-sample coefficients, a few Newton steps from the replicate's own
maximum. Fits from either start stop once the score is below SCORE_TOL,
so their coefficients differ by at most H^-1 times twice that tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, take_rows
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
    fixed: bool = False
    # a Bernoulli fit from fit_glm: the design it converged on and its
    # read-only means there, which predict_mean returns for that design
    _fitted: tuple | None = field(default=None, repr=False, compare=False)

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
        if not ((y == 0.0) | (y == 1.0)).all():
            raise DataError("bernoulli-logit requires responses in {0, 1}")
    elif not np.all(np.isfinite(y)):
        raise DataError("gaussian-identity requires finite responses")


@np.errstate(over="ignore")
def expit(x: np.ndarray) -> np.ndarray:
    """The inverse logit 1 / (1 + exp(-x)) of an array, within a few ulp of
    ``scipy.special.expit`` and exactly 0.0 and 1.0 where it is; NaN for
    NaN. exp(-x) overflows to inf only where the result is exactly 0.0,
    so that overflow is not warned of. Each step writes into the one
    array it returns: on large arrays the temporaries would cost as much
    as the arithmetic."""
    t = np.negative(x, dtype=float)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def _bernoulli_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # y*eta - log(1 + exp(eta)), with log(1 + exp(eta)) taken as
    # log1p(exp(-|eta|)) + max(eta, 0), which cannot overflow
    return float(np.sum(y * eta - (np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0))))


def fit_glm(
    x_matrix: np.ndarray, y: np.ndarray, family: GlmFamily, start: np.ndarray | None = None,
) -> GlmFit:
    """Maximum-likelihood fit of the given family.

    ``start`` is the coefficient vector Newton's method starts from (zero
    when None); the exact Gaussian solution needs none and ignores it.
    Convergence means the score (log-likelihood gradient) has max-norm
    at most 1e-8. A Newton step is halved until the score at its end has
    a nonnegative inner product with it or a max-norm at most 1e-8 or,
    failing both, the log-likelihood did not fall by more than 1e-12;
    only that last test computes log-likelihoods, and ``log_likelihood``
    gives the fit's own. Bernoulli fits whose coefficients leave [-30, 30]
    raise SeparationError whether or not the gradient test passes:
    separation can satisfy it once probabilities saturate, and the
    downstream inverse-probability weights would overflow either way.
    """
    x = np.asarray(x_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_design(x, y, family)
    q = x.shape[1]
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (q,):
            raise DimensionError(f"start of shape {start.shape} does not match {q} coefficients")

    if family is GlmFamily.GAUSSIAN_IDENTITY:
        xtx = x.T @ x
        try:
            coef = np.linalg.solve(xtx, x.T @ y)
        except np.linalg.LinAlgError:
            raise SingularInformationError("collinear design in gaussian fit")
        if not np.all(np.isfinite(coef)):
            raise SingularInformationError("non-finite gaussian solution")
        return GlmFit(coef, family, True, 1)

    # coef, its linear predictor eta, mean p and score g always describe the
    # same point; its log-likelihood ll is computed only once a step needs it
    coef = np.zeros(q) if start is None else start
    eta = x @ coef
    p = expit(eta)
    g = x.T @ (y - p)
    ll = None
    converged = False
    steps = 0
    while True:
        if np.max(np.abs(g)) <= SCORE_TOL:
            converged = True
            break
        if steps >= MAX_ITER:
            break
        w = p * (1.0 - p)
        h = (x * w[:, None]).T @ x
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            raise SingularInformationError("singular information matrix in logistic fit")
        if not np.all(np.isfinite(step)):
            raise SingularInformationError("non-finite Newton step in logistic fit")
        # step-halving: accept a trial point where the slope along the step is
        # nonnegative (by concavity the log-likelihood did not fall on the
        # step) or the score meets the tolerance (the fit stops there), or
        # else where the log-likelihood did not fall; when 40 halvings all
        # fail, the fit stops where it is, unconverged
        for t in 0.5 ** np.arange(40):
            new_coef = coef + t * step
            new_eta = x @ new_coef
            new_p = expit(new_eta)
            new_g = x.T @ (y - new_p)
            new_ll = None
            if new_g @ step >= 0.0 or np.max(np.abs(new_g)) <= SCORE_TOL:
                break
            if ll is None:
                ll = _bernoulli_loglik(eta, y)
            new_ll = _bernoulli_loglik(new_eta, y)
            if new_ll >= ll - 1e-12:
                break
        else:
            break
        coef, eta, p, g, ll = new_coef, new_eta, new_p, new_g, new_ll
        steps += 1
    # separation pushes coefficients to +-inf; the gradient may still reach
    # the tolerance once probabilities saturate, so guard on magnitude alone
    if np.max(np.abs(coef)) > COEF_BOUND:
        raise SeparationError(
            "logistic fit diverged (|coefficient| > 30); classes appear separated"
        )
    p.flags.writeable = False
    return GlmFit(coef, family, converged, steps, _fitted=(x, p))


def log_likelihood(fit: GlmFit, x: np.ndarray, y: np.ndarray) -> float:
    """Log-likelihood of ``fit`` on the design ``x`` and response ``y`` it
    was fitted to; NaN for a fixed fit. A Gaussian fit's is the profile
    one, at the residual variance (floored at 1e-300)."""
    if fit.fixed:
        return float("nan")
    if fit.family is GlmFamily.BERNOULLI_LOGIT:
        return _bernoulli_loglik(x @ fit.coefficients, y)
    resid = y - x @ fit.coefficients
    sigma2 = max(float(resid @ resid) / y.size, 1e-300)
    return -0.5 * y.size * (np.log(2.0 * np.pi * sigma2) + 1.0)


def predict_mean(fit: GlmFit, x: np.ndarray) -> np.ndarray:
    """Inverse-link of the linear predictor on each row of the 2-d design
    ``x`` of ``fit.q`` columns; any other shape is a DimensionError. On the
    very design array a Bernoulli fit converged on, the fit's own means,
    read-only: the same values, not evaluated again."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != fit.q:
        raise DimensionError(f"design of shape {x.shape} does not match fit dimension {fit.q}")
    if fit._fitted is not None and fit._fitted[0] is x:
        return fit._fitted[1]
    eta = x @ fit.coefficients
    return expit(eta) if fit.family is GlmFamily.BERNOULLI_LOGIT else eta


def fit_sampling_score(data: Dataset, start: np.ndarray | None = None) -> GlmFit:
    """Logistic regression of participation on covariates, all rows pooled,
    with Newton's method started at ``start`` (zero when None)."""
    data.require_both_samples()
    return fit_glm(data.x, data.s, GlmFamily.BERNOULLI_LOGIT, start)


def fit_propensity_score(
    data: Dataset, known_probability: float | None = None, start: np.ndarray | None = None,
) -> GlmFit:
    """Treatment model among trial rows, started at ``start`` (zero when None).

    With ``known_probability`` (randomized assignment) the returned fit
    predicts that probability everywhere and is flagged ``fixed``: it
    contributes no score equations to stacked systems, and ``start`` is
    not used.
    """
    if known_probability is not None:
        p = float(known_probability)
        if not 0.0 < p < 1.0:
            raise ConfigError("known_probability must lie strictly in (0, 1)")
        coef = np.zeros(data.q)
        coef[0] = np.log(p / (1.0 - p))
        return GlmFit(coef, GlmFamily.BERNOULLI_LOGIT, True, 0, fixed=True)
    trial = data.trial_mask
    if not trial.any():
        raise DataError("no trial rows to fit a propensity score on")
    a = data.a[trial]
    if a.min() == a.max():
        raise DataError("both treatment arms must be present among trial rows")
    return fit_glm(data.x_trial, a, GlmFamily.BERNOULLI_LOGIT, start)


def fit_outcome_models(data: Dataset, family: GlmFamily) -> tuple[GlmFit, GlmFit]:
    """Per-arm outcome regressions (treated fit, control fit) on trial rows."""
    trial = data.trial_mask
    treated = trial & (data.a == 1)
    control = trial & (data.a == 0)
    if not treated.any() or not control.any():
        raise EmptyGroupError("each treatment arm needs at least one trial row")
    fit1 = fit_glm(take_rows(data.x, treated), data.y[treated], family)
    fit0 = fit_glm(take_rows(data.x, control), data.y[control], family)
    return fit1, fit0
