import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from extval import glm
from extval.data import take_rows
from extval import (
    DataError,
    Dataset,
    DgpConfig,
    DimensionError,
    GlmFamily,
    GlmFit,
    SeparationError,
    SingularInformationError,
    fit_glm,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    generate_cohort,
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
    fit = GlmFit(np.zeros(3), BERN, True, 0)
    assert predict_mean(fit, np.array([[1.0, 5.0, -2.0]])) == pytest.approx([0.5])
    gfit = GlmFit(np.array([1.0, 2.0]), GAUSS, True, 1)
    assert predict_mean(gfit, np.array([[1.0, 3.0]])) == pytest.approx([7.0])
    bfit = GlmFit(np.array([-4.59512, 0.0]), BERN, True, 0)
    assert predict_mean(bfit, np.array([[1.0, 9.9]])) == pytest.approx([0.01], abs=1e-5)


def test_predict_mean_monotone_in_positive_coefficient():
    fit = GlmFit(np.array([0.3, 1.7]), BERN, True, 0)
    grid = np.column_stack([np.ones(50), np.linspace(-4, 4, 50)])
    preds = predict_mean(fit, grid)
    assert np.all(np.diff(preds) > 0)


@pytest.mark.parametrize("shape", [(4,), (3,), (2, 4), (2, 3, 1)], ids=str)
def test_predict_mean_dimension_check(shape):
    # only a 2-d design of fit.q columns: a 1-d row of the right length too
    # is refused
    fit = GlmFit(np.zeros(3), BERN, True, 0)
    with pytest.raises(DimensionError):
        predict_mean(fit, np.ones(shape))


def test_expit_stays_within_four_ulp_of_scipy_and_warns_of_nothing():
    normals = np.random.default_rng(11).standard_normal(200_000) * 8.0
    grid = np.linspace(-745.0, 745.0, 200_001)
    for x in (normals, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = glm.expit(x)
        want = expit(x)
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 4.0


def test_expit_matches_scipy_exactly_at_the_extremes():
    x = np.array([-np.inf, -800.0, 800.0, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = glm.expit(x)
    assert np.array_equal(got, expit(x), equal_nan=True)
    assert got[:4].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_bernoulli_loglik_matches_the_logaddexp_form():
    rng = np.random.default_rng(12)
    for scale in (0.1, 3.0, 40.0, 800.0):
        eta = rng.standard_normal(10_000) * scale
        y = (rng.random(10_000) < expit(eta)).astype(float)
        reference = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        assert glm._bernoulli_loglik(eta, y) == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_predict_mean_returns_the_means_a_fit_converged_at():
    # on the design array it was fitted to, a Bernoulli fit's own means,
    # read-only and bit-identical to evaluating them again
    data, _ = generate_cohort(DgpConfig(n_total=20_000), [41, 1])
    for fit, x in ((fit_sampling_score(data), data.x), (fit_propensity_score(data), data.x_trial)):
        held = predict_mean(fit, x)
        assert held is predict_mean(fit, x) and not held.flags.writeable
        # a copy in the design's own column-major layout
        assert held.tobytes() == predict_mean(fit, take_rows(x, np.arange(x.shape[0]))).tobytes()


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


def test_refused_newton_step_keeps_a_consistent_point(monkeypatch):
    # when no halving of a Newton step passes an acceptance test (a
    # nonnegative slope at the trial point, a score within SCORE_TOL, or a
    # log-likelihood that did not fall), the fit stops unconverged at its
    # current point. A NaN mean at every trial point leaves the slope and
    # the score undecided, and every trial point's likelihood is made lower.
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
    y = (rng.random(20) < expit(x @ np.array([0.5, -1.0, 0.3]))).astype(float)
    loglik = glm._bernoulli_loglik
    means, calls = [], []

    def undecided_slope_at_trial_points(eta):
        means.append(eta)
        return expit(eta) if len(means) == 1 else np.full_like(eta, np.nan)

    def every_trial_point_worse(eta, y):
        calls.append(eta)
        return loglik(eta, y) - (len(calls) > 1)

    monkeypatch.setattr(glm, "expit", undecided_slope_at_trial_points)
    monkeypatch.setattr(glm, "_bernoulli_loglik", every_trial_point_worse)
    fit = fit_glm(x, y, BERN)
    assert not fit.converged and fit.iterations == 0
    assert np.all(fit.coefficients == 0.0)
    # the start's likelihood once, when the first trial point's slope fails,
    # then one per trial point
    assert len(means) == 41 and len(calls) == 41


def _parent_newton(x, y, start=None):
    """Reference: the Newton loop that evaluates the log-likelihood at the
    start and at every trial point, and accepts a trial point only where it
    did not fall. Returns (coefficients, converged, iterations,
    log-likelihood, halvings)."""
    q = x.shape[1]
    coef = np.zeros(q) if start is None else np.array(start, dtype=float)
    eta = x @ coef
    ll = glm._bernoulli_loglik(eta, y)
    converged = False
    steps = halvings = 0
    while True:
        p = glm.expit(eta)
        g = x.T @ (y - p)
        if np.max(np.abs(g)) <= glm.SCORE_TOL:
            converged = True
            break
        if steps >= glm.MAX_ITER:
            break
        w = p * (1.0 - p)
        h = (x * w[:, None]).T @ x
        step = np.linalg.solve(h, g)
        for t in 0.5 ** np.arange(40):
            new_coef = coef + t * step
            new_eta = x @ new_coef
            new_ll = glm._bernoulli_loglik(new_eta, y)
            if new_ll >= ll - 1e-12:
                break
            halvings += 1
        else:
            break
        coef, eta, ll = new_coef, new_eta, new_ll
        steps += 1
    if np.max(np.abs(coef)) > glm.COEF_BOUND:
        raise SeparationError("reference fit diverged")
    return coef, converged, steps, ll, halvings


def _assert_same_fit(x, y, start=None) -> int:
    """fit_glm equals the reference loop bit for bit; returns the halvings."""
    coef, converged, steps, ll, halvings = _parent_newton(x, y, start)
    fit = fit_glm(x, y, BERN, start)
    assert fit.coefficients.tobytes() == coef.tobytes()
    assert (fit.converged, fit.iterations) == (converged, steps)
    assert glm.log_likelihood(fit, x, y).hex() == ll.hex()
    return halvings


def _logistic_designs():
    """Sampling and propensity designs of small cohorts, and random designs
    with 2 to 6 columns."""
    for seed in range(4):
        data, _ = generate_cohort(DgpConfig(n_total=20_000), [41, seed])
        yield data.x, data.s
        trial = data.trial_mask
        yield data.x[trial], data.a[trial]
    rng = np.random.default_rng(42)
    for n, q in ((30, 2), (200, 3), (1_000, 5), (5_000, 6)):
        x = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
        beta = rng.uniform(-1.5, 1.5, q)
        yield x, (rng.random(n) < expit(x @ beta)).astype(float)


def test_newton_loop_matches_reference_from_cold_starts():
    for x, y in _logistic_designs():
        _assert_same_fit(x, y)


def test_newton_loop_matches_reference_from_warm_starts():
    for x, y in _logistic_designs():
        full = fit_glm(x, y, BERN).coefficients
        for r in range(5):
            rows = np.random.default_rng([7, r]).integers(0, y.size, y.size)
            _assert_same_fit(x[rows], y[rows], full)


def test_newton_loop_matches_reference_from_far_off_starts():
    halvings = 0
    for i, (x, y) in enumerate(_logistic_designs()):
        offset = np.random.default_rng([8, i]).choice([-6.0, 6.0], x.shape[1])
        halvings += _assert_same_fit(x, y, fit_glm(x, y, BERN).coefficients + offset)
    assert halvings > 0


def test_newton_loop_matches_reference_on_a_separated_design():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = (np.arange(10) >= 5).astype(float)
    for start in (None, np.array([-4.5, 1.0])):
        with pytest.raises(SeparationError):
            _parent_newton(x, y, start)
        with pytest.raises(SeparationError):
            fit_glm(x, y, BERN, start)


def _counting_loglik(monkeypatch) -> list:
    """Replaces glm._bernoulli_loglik with a copy that records each call."""
    loglik = glm._bernoulli_loglik
    calls = []

    def counted(eta, y):
        calls.append(eta)
        return loglik(eta, y)

    monkeypatch.setattr(glm, "_bernoulli_loglik", counted)
    return calls


def test_fit_without_halving_evaluates_no_log_likelihood(monkeypatch):
    # every step is accepted on its slope, and the fit reports no
    # log-likelihood, so none is computed
    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(500), rng.standard_normal((500, 3))])
    y = (rng.random(500) < expit(x @ np.array([-0.5, 1.0, -0.8, 0.3]))).astype(float)
    *_, steps, _, halvings = _parent_newton(x, y)
    assert steps > 1 and halvings == 0
    calls = _counting_loglik(monkeypatch)
    fit = fit_glm(x, y, BERN)
    assert fit.iterations == steps
    assert calls == []


def _full_newton_steps(x, y, start):
    """The Newton path from ``start`` taking every step whole: its end, and
    per step the slope along the step and the score's max-norm at its end."""
    coef, path = start, []
    while len(path) < 20:
        p = glm.expit(x @ coef)
        g = x.T @ (y - p)
        if np.max(np.abs(g)) <= glm.SCORE_TOL:
            break
        step = np.linalg.solve((x * (p * (1.0 - p))[:, None]).T @ x, g)
        coef = coef + step
        new_g = x.T @ (y - glm.expit(x @ coef))
        path.append((new_g @ step, np.max(np.abs(new_g))))
    return coef, path


def test_warm_refit_ending_within_tolerance_compares_no_log_likelihoods(monkeypatch):
    # a warm-started bootstrap refit whose last trial point already meets
    # SCORE_TOL, but whose slope there is negative by rounding, stops at
    # that point without comparing log-likelihoods
    data, _ = generate_cohort(DgpConfig(n_total=20_000), [41, 0])
    trial = data.trial_mask
    calls = _counting_loglik(monkeypatch)
    refits = 0
    for x, y in ((data.x, data.s), (data.x[trial], data.a[trial])):
        full = fit_glm(x, y, BERN).coefficients
        for r in range(20):
            rows = np.random.default_rng([7, r]).integers(0, y.size, y.size)
            end, path = _full_newton_steps(x[rows], y[rows], full)
            slopes = [slope for slope, _ in path]
            if not path or min(slopes[:-1], default=0.0) < 0.0 or slopes[-1] >= 0.0 \
                    or path[-1][1] > glm.SCORE_TOL:
                continue
            calls.clear()
            fit = fit_glm(x[rows], y[rows], BERN, full)
            assert fit.coefficients.tobytes() == end.tobytes()
            assert (fit.converged, fit.iterations) == (True, len(path))
            assert calls == []
            refits += 1
    assert refits > 0


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
    assert predict_mean(fit1, np.ones((1, 1))) == pytest.approx([4.0])
    assert predict_mean(fit0, np.ones((1, 1))) == pytest.approx([-1.0])


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
    with pytest.raises(DataError) as exc:
        Dataset(
            s=np.array([1.0, 0.0]),
            a=np.array([1.0, 1.0]),   # treatment on a target row
            y=np.array([0.5, np.nan]),
            x=np.ones((2, 1)),
        )
    assert exc.value.row == 1


def test_warm_start_matches_cold_fit_on_bootstrap_resamples():
    # both fits stop with a score of max-norm at most SCORE_TOL, so their
    # coefficients differ by at most |H^-1|_inf * 2 * SCORE_TOL
    data, _ = generate_cohort(DgpConfig(n_total=20_000), [5, 9])
    full = (fit_sampling_score(data), fit_propensity_score(data))
    idx_trial, idx_target = np.flatnonzero(data.trial_mask), np.flatnonzero(data.target_mask)
    iterations = np.zeros(2, dtype=int)
    for r in range(20):
        rng = np.random.default_rng([3, r])
        ds = data.subset(np.concatenate([
            idx_trial[rng.integers(0, idx_trial.size, idx_trial.size)],
            idx_target[rng.integers(0, idx_target.size, idx_target.size)],
        ]))
        for fit_score, start, x in (
            (fit_sampling_score, full[0], ds.x),
            (fit_propensity_score, full[1], ds.x[ds.trial_mask]),
        ):
            warm, cold = fit_score(ds, start=start.coefficients), fit_score(ds)
            assert warm.converged and cold.converged
            p = predict_mean(cold, x)
            h = (x * (p * (1.0 - p))[:, None]).T @ x
            bound = 2.0 * glm.SCORE_TOL * np.max(np.sum(np.abs(np.linalg.inv(h)), axis=1))
            assert np.max(np.abs(warm.coefficients - cold.coefficients)) <= bound
            iterations += (warm.iterations, cold.iterations)
    assert iterations[0] < iterations[1]


def test_warm_start_still_detects_separation():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = (np.arange(10) >= 5).astype(float)
    with pytest.raises(SeparationError):
        fit_glm(x, y, BERN, start=np.array([-4.5, 1.0]))


def test_warm_start_of_wrong_length_raises():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.tile([0.0, 1.0], 5)
    for family in (BERN, GAUSS):
        with pytest.raises(DimensionError):
            fit_glm(x, y, family, start=np.zeros(3))
    data = make_dataset(x, y, np.zeros(10), x)
    with pytest.raises(DimensionError):
        fit_sampling_score(data, start=np.zeros(1))


@pytest.mark.parametrize("rows", ["trial", "target", "mixed", "mask_rows"])
def test_subset_equals_dataset_of_the_same_rows(rows):
    rng = np.random.default_rng(12)
    data = _two_sample(rng, 30, 40)
    idx = {
        "trial": np.flatnonzero(data.trial_mask)[[3, 3, 0, 29]],
        "target": np.flatnonzero(data.target_mask)[[5, 39, 5]],
        "mixed": rng.integers(0, data.n, 50),
        "mask_rows": np.flatnonzero(rng.random(data.n) < 0.5),
    }[rows]
    sub = data.subset(idx)
    built = Dataset(data.s[idx], data.a[idx], data.y[idx], data.x[idx])
    for name in ("s", "a", "y", "x"):
        got, want = getattr(sub, name), getattr(built, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("idx", ["mask", "short_mask", "floats"])
def test_subset_rejects_indices_that_are_not_integers(idx):
    # take would read a boolean mask as the rows 0 and 1
    data = _two_sample(np.random.default_rng(12), 30, 40)
    idx = {
        "mask": np.arange(data.n) % 2 == 0,
        "short_mask": np.ones(data.n - 1, dtype=bool),
        "floats": np.array([0.0, 3.0, 5.0]),
    }[idx]
    with pytest.raises(DimensionError):
        data.subset(idx)


def test_cached_masks_are_read_only():
    data = _two_sample(np.random.default_rng(13), 30, 40)
    for mask in (data.trial_mask, data.target_mask):
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
    assert data.trial_mask is data.trial_mask
    assert (data.n1, data.n2) == (30, 40)
