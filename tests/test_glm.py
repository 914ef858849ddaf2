import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from extval import (
    DataError,
    Dataset,
    DimensionError,
    GlmFamily,
    GlmFit,
    SeparationError,
    SingularInformationError,
    fit_glm,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    make_dataset,
    predict_mean,
)

BERN = GlmFamily.BERNOULLI_LOGIT
GAUSS = GlmFamily.GAUSSIAN_IDENTITY


def test_intercept_only_bernoulli_balanced():
    x = np.ones((4, 1))
    fit = fit_glm(x, np.array([1.0, 1.0, 0.0, 0.0]), BERN)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-10)


def test_intercept_only_gaussian_is_mean():
    fit = fit_glm(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]), GAUSS)
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)


def test_bernoulli_matches_simplex_maximizer():
    # independent oracle: derivative-free maximization of the same likelihood
    rng = np.random.default_rng(42)
    x = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
    eta = x @ np.array([-0.3, 0.8, -0.5])
    y = (rng.random(20) < expit(eta)).astype(float)
    fit = fit_glm(x, y, BERN)

    def negll(beta):
        e = x @ beta
        return -np.sum(y * e - np.logaddexp(0.0, e))

    res = minimize(
        negll, np.zeros(3), method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 20000},
    )
    assert np.max(np.abs(fit.coefficients - res.x)) < 1e-4


def test_gaussian_equals_normal_equations():
    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.standard_normal(50)
    fit = fit_glm(x, y, GAUSS)
    direct = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.max(np.abs(fit.coefficients - direct)) < 1e-8


def test_row_permutation_invariance():
    rng = np.random.default_rng(11)
    x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
    y = (rng.random(40) < expit(x @ np.array([0.2, 1.0, -1.0]))).astype(float)
    fit = fit_glm(x, y, BERN)
    perm = rng.permutation(40)
    fit_p = fit_glm(x[perm], y[perm], BERN)
    assert np.allclose(fit.coefficients, fit_p.coefficients, atol=1e-9)


def test_separation_raises():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = (np.arange(10) >= 5).astype(float)
    with pytest.raises(SeparationError):
        fit_glm(x, y, BERN)


def test_collinear_design_raises():
    x = np.column_stack([np.ones(20), np.arange(20.0), 2.0 * np.arange(20.0)])
    y = np.arange(20.0)
    with pytest.raises(SingularInformationError):
        fit_glm(x, y, GAUSS)


def test_family_response_validation():
    with pytest.raises(DataError):
        fit_glm(np.ones((4, 1)), np.array([0.0, 1.0, 2.0, 0.0]), BERN)
    with pytest.raises(DataError):
        fit_glm(np.ones((4, 1)), np.array([0.0, 1.0, np.inf, 0.0]), GAUSS)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        fit_glm(np.ones((4, 1)), np.ones(5), GAUSS)


def test_predict_mean_values():
    fit = GlmFit(np.zeros(3), BERN, True, 0, 0.0)
    assert predict_mean(fit, np.array([1.0, 5.0, -2.0])) == pytest.approx(0.5)
    gfit = GlmFit(np.array([1.0, 2.0]), GAUSS, True, 1, 0.0)
    assert predict_mean(gfit, np.array([1.0, 3.0])) == pytest.approx(7.0)
    bfit = GlmFit(np.array([-4.59512, 0.0]), BERN, True, 0, 0.0)
    assert predict_mean(bfit, np.array([1.0, 9.9])) == pytest.approx(0.01, abs=1e-5)


def test_predict_mean_monotone_in_positive_coefficient():
    fit = GlmFit(np.array([0.3, 1.7]), BERN, True, 0, 0.0)
    grid = np.column_stack([np.ones(50), np.linspace(-4, 4, 50)])
    preds = predict_mean(fit, grid)
    assert np.all(np.diff(preds) > 0)


def test_predict_mean_dimension_check():
    fit = GlmFit(np.zeros(3), BERN, True, 0, 0.0)
    with pytest.raises(DimensionError):
        predict_mean(fit, np.ones(4))


def test_score_contributions_sum_to_zero_at_mle():
    # the per-row score rows (y - mean(x)) x that the stacked systems use
    # sum to zero at a converged fit on its own data
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
    y = (rng.random(20) < expit(x @ np.array([0.5, -1.0, 0.3]))).astype(float)
    fit = fit_glm(x, y, BERN)
    rows = (y - predict_mean(fit, x))[:, None] * x
    assert fit.converged
    assert np.max(np.abs(rows.sum(axis=0))) < 1e-6


def _two_sample(rng, n1, n2, q=3, beta=None):
    x1 = np.column_stack([np.ones(n1), rng.standard_normal((n1, q - 1))])
    x2 = np.column_stack([np.ones(n2), rng.standard_normal((n2, q - 1))])
    a = (rng.random(n1) < 0.5).astype(float)
    y = rng.standard_normal(n1)
    return make_dataset(x1, a, y, x2)


def test_sampling_score_null_coefficients():
    # participation independent of covariates: slopes near zero
    rng = np.random.default_rng(99)
    data = _two_sample(rng, 2000, 2000)
    fit = fit_sampling_score(data)
    p = predict_mean(fit, data.x)
    w = p * (1 - p)
    cov = np.linalg.inv((data.x * w[:, None]).T @ data.x)
    se = np.sqrt(np.diag(cov))
    assert np.all(np.abs(fit.coefficients[1:]) < 3 * se[1:])


def test_propensity_known_probability():
    rng = np.random.default_rng(1)
    data = _two_sample(rng, 50, 50)
    fit = fit_propensity_score(data, known_probability=0.5)
    assert fit.fixed
    assert np.allclose(predict_mean(fit, data.x), 0.5)
    with pytest.raises(Exception):
        fit_propensity_score(data, known_probability=1.5)


def test_propensity_randomized_fit_stays_moderate():
    rng = np.random.default_rng(2)
    data = _two_sample(rng, 1000, 10)
    fit = fit_propensity_score(data)
    preds = predict_mean(fit, data.x[data.trial_mask])
    assert np.all((preds > 0.4) & (preds < 0.6))


def test_propensity_separation_errors():
    rng = np.random.default_rng(4)
    n1 = 40
    x1 = np.column_stack([np.ones(n1), np.linspace(-2, 2, n1)])
    a = (x1[:, 1] > 0).astype(float)
    data = make_dataset(x1, a, rng.standard_normal(n1), np.column_stack([np.ones(5), np.zeros(5)]))
    with pytest.raises(SeparationError):
        fit_propensity_score(data)


def test_outcome_models_constant_arms():
    rng = np.random.default_rng(6)
    n1 = 30
    x1 = np.column_stack([np.ones(n1)])
    a = np.repeat([1.0, 0.0], 15)
    y = np.where(a == 1, 4.0, -1.0)
    data = make_dataset(x1, a, y, np.ones((5, 1)))
    fit1, fit0 = fit_outcome_models(data, GAUSS)
    assert predict_mean(fit1, np.array([1.0])) == pytest.approx(4.0)
    assert predict_mean(fit0, np.array([1.0])) == pytest.approx(-1.0)


def test_outcome_models_recover_linear_truth():
    rng = np.random.default_rng(7)
    n1 = 2000
    x1 = np.column_stack([np.ones(n1), rng.standard_normal((n1, 2))])
    a = (rng.random(n1) < 0.5).astype(float)
    theta1 = np.array([1.0, 2.0, -1.0])
    theta0 = np.array([0.0, 1.0, 1.0])
    y = np.where(a == 1, x1 @ theta1, x1 @ theta0) + rng.standard_normal(n1)
    data = make_dataset(x1, a, y, np.column_stack([np.ones(5), np.zeros((5, 2))]))
    fit1, fit0 = fit_outcome_models(data, GAUSS)
    for fit, truth, arm in ((fit1, theta1, 1.0), (fit0, theta0, 0.0)):
        xa = x1[a == arm]
        se = np.sqrt(np.diag(np.linalg.inv(xa.T @ xa)))
        assert np.all(np.abs(fit.coefficients - truth) < 5 * se)


def test_dataset_role_validation():
    with pytest.raises(DataError):
        Dataset(
            s=np.array([1.0, 0.0]),
            a=np.array([1.0, 1.0]),   # treatment on a target row
            y=np.array([0.5, np.nan]),
            x=np.ones((2, 1)),
        )
