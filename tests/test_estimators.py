import dataclasses
import gc
import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit, logit, ndtri

from extval import (
    ConfigError,
    Dataset,
    DgpConfig,
    GlmFamily,
    GlmFit,
    NumericalError,
    PartitionResult,
    SingularSystemError,
    StackedSystem,
    StationarityError,
    ZeroWeightError,
    augmented_ipw,
    bootstrap_ci,
    build_stacked_system,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    generate_cohort,
    hajek_ipw,
    make_dataset,
    partition_population,
    predict_mean,
    sandwich_variance,
    trimmed_aipw,
    trimmed_ipw,
)
from extval import estimators, glm, parallel
from extval.data import take_rows
from extval.estimators import _hajek

BERN = GlmFamily.BERNOULLI_LOGIT
GAUSS = GlmFamily.GAUSSIAN_IDENTITY


def _fit(coef, family=BERN):
    return GlmFit(np.asarray(coef, dtype=float), family, True, 1)


def _toy_dataset():
    # trial rows engineered so the sampling fit with coefficients (0, 1)
    # predicts hs = 0.5, 0.25, 0.5, 0.25; propensity fixed at 0.5
    hs = [0.5, 0.25, 0.5, 0.25]
    x1 = np.array([[1.0, logit(h)] for h in hs])
    a = np.array([1.0, 1.0, 0.0, 0.0])
    y = np.array([2.0, 4.0, 1.0, 3.0])
    x2 = np.array([[1.0, logit(0.3)], [1.0, logit(0.35)]])
    return make_dataset(x1, a, y, x2)


def _toy_fits():
    return _fit([0.0, 1.0]), _fit([0.0, 0.0])


def test_hajek_toy_hand_value():
    data = _toy_dataset()
    sampling, propensity = _toy_fits()
    rep = hajek_ipw(data, sampling, propensity, variance="none")
    # weights (1-h)/(h*0.5): 2, 6, 2, 6 -> (2*2+6*4)/8 - (2*1+6*3)/8 = 1.0
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.method == "ipw" and not rep.trimmed


def test_hajek_constant_scores_is_mean_difference():
    rng = np.random.default_rng(12)
    n1 = 60
    x1 = np.ones((n1, 1))
    a = (rng.random(n1) < 0.5).astype(float)
    y = rng.standard_normal(n1) + a
    data = make_dataset(x1, a, y, np.ones((40, 1)))
    rep = hajek_ipw(data, _fit([0.0]), _fit([0.0]), variance="none")
    assert rep.estimate == pytest.approx(y[a == 1].mean() - y[a == 0].mean(), abs=1e-12)


def test_hajek_weight_scale_invariance():
    rng = np.random.default_rng(13)
    w = rng.random(30) + 0.1
    y = rng.standard_normal(30)
    assert _hajek(y, w, "t") == pytest.approx(_hajek(y, 10.0 * w, "t"), abs=1e-12)


def _manual_partition(delta, p3_star, n_target, epsilon=1e-8):
    labels = np.full(n_target, 3, dtype=np.int8)
    return PartitionResult(
        labels=labels, delta_star=delta,
        p_hat=(0.0, 1.0 - p3_star, p3_star), p3_star=p3_star, epsilon=epsilon,
    )


def test_trimmed_toy_drops_low_score_rows():
    data = _toy_dataset()
    sampling, propensity = _toy_fits()
    # delta between the 0.25*0.5 and 0.3*0.5 products trims the hs=0.25 rows
    part = _manual_partition(delta=0.14, p3_star=1.0, n_target=2)
    rep = trimmed_ipw(data, sampling, propensity, part, variance="none")
    assert rep.estimate == pytest.approx(2.0 - 1.0, abs=1e-12)


def test_trimmed_equals_untrimmed_at_full_share():
    data, sampling, propensity, outcome = _moderate_pipeline()
    part = partition_population(data, sampling, propensity, None, 1.0)
    plain = hajek_ipw(data, sampling, propensity, variance="none")
    trimmed = trimmed_ipw(data, sampling, propensity, part, variance="none")
    assert abs(plain.estimate - trimmed.estimate) <= 1e-9
    aug = augmented_ipw(data, sampling, propensity, outcome, variance="none")
    trimmed_a = trimmed_aipw(data, sampling, propensity, outcome, part, variance="none")
    assert abs(aug.estimate - trimmed_a.estimate) <= 1e-9


def test_zero_outcome_models_make_aipw_equal_ipw():
    data, sampling, propensity, _ = _moderate_pipeline()
    zero = (_fit(np.zeros(data.q), GAUSS), _fit(np.zeros(data.q), GAUSS))
    plain = hajek_ipw(data, sampling, propensity, variance="none")
    aug = augmented_ipw(data, sampling, propensity, zero, variance="none")
    assert aug.estimate == plain.estimate
    part = partition_population(data, sampling, propensity, None, 0.8)
    t_ipw = trimmed_ipw(data, sampling, propensity, part, variance="none")
    t_aipw = trimmed_aipw(data, sampling, propensity, zero, part, variance="none")
    assert t_aipw.estimate == t_ipw.estimate


def test_reduction_chain_full_share_and_zero_models():
    data, sampling, propensity, _ = _moderate_pipeline()
    zero = (_fit(np.zeros(data.q), GAUSS), _fit(np.zeros(data.q), GAUSS))
    part = partition_population(data, sampling, propensity, None, 1.0)
    plain = hajek_ipw(data, sampling, propensity, variance="none").estimate
    chain = trimmed_aipw(data, sampling, propensity, zero, part, variance="none").estimate
    assert abs(chain - plain) <= 1e-9


def test_exact_linear_outcomes_reduce_to_model_contrast():
    # zero noise and a correct linear model: residual terms vanish and the
    # augmented estimator equals the target-sample model contrast
    rng = np.random.default_rng(23)
    n1, n2 = 80, 120
    x1 = np.column_stack([np.ones(n1), rng.standard_normal(n1)])
    x2 = np.column_stack([np.ones(n2), rng.standard_normal(n2)])
    a = np.tile([1.0, 0.0], n1 // 2)
    theta1 = np.array([2.0, 1.0])
    theta0 = np.array([1.0, -1.0])
    y = np.where(a == 1, x1 @ theta1, x1 @ theta0)
    data = make_dataset(x1, a, y, x2)
    sampling = fit_sampling_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    rep = augmented_ipw(data, sampling, _fit([0.0, 0.0]), outcome, variance="none")
    expected = np.mean(x2 @ (theta1 - theta0))
    assert rep.estimate == pytest.approx(expected, abs=1e-8)


def _moderate_pipeline(seed=77, n1=200, n2=400, q=3, family=GAUSS):
    # well-behaved overlap so stacked systems are comfortably regular
    rng = np.random.default_rng(seed)
    x1 = np.column_stack([np.ones(n1), rng.standard_normal((n1, q - 1)) + 0.4])
    x2 = np.column_stack([np.ones(n2), rng.standard_normal((n2, q - 1))])
    a = (rng.random(n1) < 0.5).astype(float)
    y = np.where(a == 1, x1 @ np.ones(q), x1 @ np.r_[0.0, np.ones(q - 1)])
    y = y + rng.standard_normal(n1)
    if family is BERN:
        y = (rng.random(n1) < expit(y - 1.0)).astype(float)
    data = make_dataset(x1, a, y, x2)
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, family)
    return data, sampling, propensity, outcome


def test_stacked_dimensions_and_contrast_ipw():
    data, sampling, propensity, _ = _moderate_pipeline(q=5)
    part = partition_population(data, sampling, propensity, None, 0.8)
    system = build_stacked_system(data, sampling, propensity, partition=part)
    # the weighting estimator is the augmented one with outcome models
    # fixed at zero: no outcome block, and a v3 row whose mean is exactly 0
    assert system.xi.size == 5 + 5 + 1 + 3 == 14
    assert not any(label.startswith("outcome") for label in system.labels)
    assert system.labels[-3:] == ("v1", "v2", "v3")
    assert system.xi[-1] == 0.0
    expected = np.zeros(14)
    expected[-3:] = 1.0, -1.0, 1.0
    assert np.array_equal(system.eta, expected)


def test_stacked_dimensions_and_contrast_aipw():
    data, sampling, propensity, outcome = _moderate_pipeline(q=5)
    part = partition_population(data, sampling, propensity, None, 0.8)
    system = build_stacked_system(data, sampling, propensity, outcome, part)
    assert system.xi.size == 4 * 5 + 1 + 3 == 24
    assert system.eta[-3:].tolist() == [1.0, -1.0, 1.0]
    assert np.all(system.eta[:-3] == 0.0)


@pytest.mark.parametrize("estimator, kind, trimmed", [
    (hajek_ipw, "ipw", False), (trimmed_ipw, "ipw", True),
    (augmented_ipw, "aipw", False), (trimmed_aipw, "aipw", True),
])
def test_estimate_is_the_stacked_plug_in_contrast(estimator, kind, trimmed):
    data, sampling, propensity, outcome = _moderate_pipeline(seed=9)
    part = partition_population(data, sampling, propensity, None, 0.8) if trimmed else None
    fits = outcome if kind == "aipw" else None
    report = estimator(data, sampling, propensity, *([fits] if fits else []), *([part] if part else []))
    system = build_stacked_system(data, sampling, propensity, fits, part)
    assert report.method == kind
    assert report.variance_method == "sandwich" and report.variance > 0
    assert report.estimate == pytest.approx(system.eta @ system.xi, rel=1e-12, abs=0.0)


def test_stacked_fixed_propensity_omits_its_block():
    data, sampling, _, _ = _moderate_pipeline(q=3)
    fixed = fit_propensity_score(data, known_probability=0.5)
    part = partition_population(data, sampling, fixed, None, 0.8)
    system = build_stacked_system(data, sampling, fixed, partition=part)
    assert system.xi.size == 3 + 1 + 3


def test_stacked_stationarity_at_plugin():
    data, sampling, propensity, outcome = _moderate_pipeline(seed=5, n1=250, n2=250)
    part = partition_population(data, sampling, propensity, None, 0.9)
    for fits in (None, outcome):
        system = build_stacked_system(data, sampling, propensity, fits, part)
        assert np.max(np.abs(system.psi(system.xi).mean(axis=0))) <= 1e-5


def test_stacked_rejects_foreign_fits():
    data, sampling, propensity, _ = _moderate_pipeline(seed=6)
    other, *_ = _moderate_pipeline(seed=60)
    foreign = fit_sampling_score(other)
    # the sandwich checks stationarity on the rows it evaluates
    with pytest.raises(StationarityError):
        sandwich_variance(build_stacked_system(data, foreign, propensity))
    with pytest.raises(StationarityError):
        hajek_ipw(data, foreign, propensity)


def test_sandwich_on_plain_mean_system():
    rng = np.random.default_rng(30)
    y = rng.standard_normal(400) * 2.0 + 1.0
    mu = float(y.mean())
    system = StackedSystem(
        xi=np.array([mu]),
        eta=np.array([1.0]),
        psi=lambda xi: (y - xi[0])[:, None],
        jacobian=np.array([[-1.0]]),
        labels=("mu",),
    )
    var = sandwich_variance(system)
    assert var == pytest.approx(np.var(y, ddof=1) / y.size, rel=0.02)


def test_sandwich_positive_on_pipeline():
    data, sampling, propensity, outcome = _moderate_pipeline(seed=8)
    part = partition_population(data, sampling, propensity, None, 0.8)
    rep = trimmed_aipw(data, sampling, propensity, outcome, part)
    assert rep.variance > 0
    assert rep.ci_low <= rep.estimate <= rep.ci_high
    assert rep.ci_high - rep.estimate == pytest.approx(1.96 * rep.se, rel=1e-12)


def _difference_jacobian(system, rel_step=1e-5):
    """Central-difference Jacobian of the mean of ``jacobian_psi`` (``psi``
    without an estimated threshold): relative step ``rel_step`` per
    coordinate with absolute floor 1e-7, except the threshold, whose step
    is 1e-3 of the system's bandwidth."""
    xi = system.xi
    psi = system.jacobian_psi or system.psi
    steps = np.maximum(rel_step * np.abs(xi), 1e-7)
    if system.bandwidth is not None:
        steps[system.labels.index("threshold")] = 1e-3 * system.bandwidth
    jac = np.empty((system.xi.size, system.xi.size))
    for j, h in enumerate(steps):
        up, dn = xi.copy(), xi.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (psi(up).mean(axis=0) - psi(dn).mean(axis=0)) / (2.0 * h)
    return jac


@pytest.mark.parametrize("family", [GAUSS, BERN])
@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("setup", ["untrimmed", "trimmed", "fixed_propensity", "boundary"])
def test_closed_form_jacobian_matches_differences(family, augmented, setup):
    data, sampling, propensity, outcome = _moderate_pipeline(seed=21, q=4, family=family)
    if setup == "fixed_propensity":
        propensity = fit_propensity_score(data, known_probability=0.5)
    part = None
    if setup in ("trimmed", "fixed_propensity"):
        part = partition_population(data, sampling, propensity, None, 0.8)
    elif setup == "boundary":
        part = partition_population(data, sampling, propensity, None, 1.0)
        assert part.delta_star == 0.0
    system = build_stacked_system(data, sampling, propensity, outcome if augmented else None, part)
    assert ("threshold" in system.labels) == (setup in ("trimmed", "fixed_propensity"))
    diff = _difference_jacobian(system)
    # relative to the largest entry of each estimating function's row
    err = np.abs(system.jacobian - diff) / np.abs(diff).max(axis=1, keepdims=True)
    smooth = [j for j, label in enumerate(system.labels) if label != "threshold"]
    assert err[:, smooth].max() <= 1e-6
    if "threshold" in system.labels:
        assert err[:, system.labels.index("threshold")].max() <= 1e-4


def test_sandwich_does_not_depend_on_difference_step():
    # a cohort whose threshold sits between sparse target min-products:
    # differencing the membership at its own 1e-8 scale gave SEs of 1.23,
    # 1.93 and 2.00 at these steps against a bootstrap SE near 0.39; the
    # closed-form Jacobian must agree with differences of the smoothed
    # estimating functions at every step
    data, truth = generate_cohort(DgpConfig(n_total=50_000), [820_700, 2])
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    part = partition_population(data, sampling, propensity, truth.excluded[data.target_mask], 0.8)
    system = build_stacked_system(data, sampling, propensity, outcome, part)
    se = np.sqrt(sandwich_variance(system))
    assert se == pytest.approx(trimmed_aipw(data, sampling, propensity, outcome, part).se, rel=1e-12)
    for step in (1e-4, 1e-5, 1e-6):
        differenced = dataclasses.replace(system, jacobian=_difference_jacobian(system, step))
        assert np.sqrt(sandwich_variance(differenced)) == pytest.approx(se, rel=1e-3)


def _dense_jacobian(pipeline, xi, r, scale=None):
    """The closed-form Jacobian with every block summed over all n rows and
    the membership's derivatives at full length: the reference for the
    sums of ``_Pipeline.jacobian`` over the trial rows and the window."""
    x, s, a = pipeline.data.x, pipeline.data.s, pipeline.a
    n = x.shape[0]
    sl = pipeline.slices
    jac = np.zeros((pipeline.dim, pipeline.dim))

    def gram(block, c):
        jac[sl[block], sl[block]] = -(x.T @ (c[:, None] * x)) / n

    e0 = 1.0 - r.e1
    gram("sampling", r.hs * (1.0 - r.hs))
    log_slopes = {"sampling": (-1.0, -1.0, 0.0)}
    value_slopes = {}
    if pipeline.fixed_e1 is None:
        gram("propensity", s * r.e1 * e0)
        log_slopes["propensity"] = (-e0, r.e1, 0.0)
    if pipeline.fixed_m is None:
        dm1, dm0 = pipeline.link_slope(r.m1), pipeline.link_slope(r.m0)
        d1, d0 = s * a * dm1, s * (1.0 - a) * dm0
        gram("outcome1", d1)
        gram("outcome0", d0)
        value_slopes = {"outcome1": (-d1, -d1, dm1), "outcome0": (-d0, -d0, -dm0)}
    k, k_slopes = 1.0, {}
    if pipeline.partition is not None:
        delta = xi[sl["threshold"]][0] if pipeline.estimate_delta else pipeline.partition.delta_star
        k, window, slopes = pipeline.trim.membership_slopes(r.hs, r.e1, delta, scale)
        k_slopes = {block: np.zeros(n) for block in slopes}
        for block, values in slopes.items():
            k_slopes[block][window] = values
    if pipeline.estimate_delta:
        row = sl["threshold"].start
        for block in log_slopes:
            jac[row, sl[block]] = ((1.0 - s) * k_slopes[block]) @ x / n
        jac[row, row] = np.mean((1.0 - s) * k_slopes["threshold"])
    omegas = (r.w1, r.w0, 1.0 - s)
    for j, name in enumerate(pipeline.tail):
        row = sl[name].start
        omega, centred = omegas[j], r.means[j][1] - xi[row]
        for block, slopes in log_slopes.items():
            c = (k_slopes.get(block, 0.0) + k * slopes[j]) * omega * centred
            jac[row, sl[block]] = c @ x / n
        for block, slopes in value_slopes.items():
            jac[row, sl[block]] = (k * omega * slopes[j]) @ x / n
        if pipeline.estimate_delta:
            jac[row, sl["threshold"]] = np.mean(k_slopes["threshold"] * omega * centred)
        jac[row, row] = -np.mean(k * omega)
    return jac


def _assert_matches_dense_jacobian(system):
    pipeline, fitted, xi = system._fitted
    dense = _dense_jacobian(pipeline, xi, fitted, system.bandwidth)
    # relative to the largest entry of each estimating function's row
    err = np.abs(system.jacobian - dense) / np.abs(dense).max(axis=1, keepdims=True)
    assert err.max() <= 1e-13


def _matrix_sandwich(system):
    """The sandwich from the (n, dim) matrix of rows, the reference for the
    block-by-block sums of ``sandwich_variance``."""
    rows = system.psi(system.xi)
    if np.max(np.abs(rows.mean(axis=0))) > estimators.STATIONARITY_TOL:
        raise StationarityError("reference: not stationary")
    values = -(rows @ np.linalg.solve(system.jacobian.T, system.eta))
    return float(values @ values) / rows.shape[0] ** 2


@pytest.mark.parametrize("family", [GAUSS, BERN])
@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("setup", ["untrimmed", "trimmed", "fixed_propensity", "boundary"])
def test_sandwich_matches_the_matrix_of_rows(family, augmented, setup):
    data, sampling, propensity, outcome = _moderate_pipeline(seed=23, q=4, family=family)
    if setup == "fixed_propensity":
        propensity = fit_propensity_score(data, known_probability=0.5)
    part = None
    if setup != "untrimmed":
        part = partition_population(data, sampling, propensity, None, 1.0 if setup == "boundary" else 0.8)
    system = build_stacked_system(data, sampling, propensity, outcome if augmented else None, part)
    assert ("threshold" in system.labels) == (setup in ("trimmed", "fixed_propensity"))
    assert sandwich_variance(system) == pytest.approx(_matrix_sandwich(system), rel=1e-12, abs=0.0)
    _assert_matches_dense_jacobian(system)


@pytest.mark.parametrize("family", [GAUSS, BERN])
def test_jacobian_matches_the_sums_over_all_rows_on_an_interleaved_cohort(family):
    # generated cohorts interleave trial and target rows, and at the
    # bandwidth some trial rows fall in the membership's window, so the
    # v1 and v2 rows carry derivatives of k
    data, truth = generate_cohort(DgpConfig(n_total=100_000, outcome_family=family), [19, 4])
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, family)
    part = partition_population(data, sampling, propensity, truth.excluded[data.target_mask], 0.8)
    system = build_stacked_system(data, sampling, propensity, outcome, part)
    pipeline, fitted, xi = system._fitted
    _, window, _ = pipeline.trim.slopes[1]
    assert np.count_nonzero(np.diff(data.trial_mask)) > 100
    assert np.any(data.trial_mask[window]) and np.any(data.target_mask[window])
    _assert_matches_dense_jacobian(system)


@pytest.fixture(scope="module")
def registry_system():
    """A trimmed-AIPW system on 109,145 rows (n_total 1e6), 9% of them trial
    rows."""
    data, truth = generate_cohort(DgpConfig(n_total=1_000_000), [1, 0])
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    part = partition_population(data, sampling, propensity, truth.excluded[data.target_mask], 0.8)
    return build_stacked_system(data, sampling, propensity, outcome, part)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sandwich_memory_stays_below_the_matrix_of_rows(registry_system):
    system = registry_system
    assert system.xi.size == 24
    peak = _traced_peak(lambda: sandwich_variance(system))
    # the rows as one (n, dim) matrix would take this much on their own
    assert peak < system._fitted[0].data.n * system.xi.size * 8


def test_jacobian_memory_sums_each_block_over_its_rows(registry_system):
    pipeline, fitted, xi = registry_system._fitted
    # the Gram blocks and membership slopes that the methods of one
    # analysis share are computed again, inside the measurement
    del pipeline.core.grams, pipeline.trim.slopes
    peak = _traced_peak(lambda: pipeline.jacobian(xi, fitted))
    # about 9 float arrays of length n; summing every block over all rows
    # took about 22
    assert peak < 16 * pipeline.data.n * 8


def _smooth_every_row(min_prods, lo, hi, epsilon):
    return np.zeros(min_prods.size), np.arange(min_prods.size)


def test_membership_slopes_smooth_only_unsaturated_rows(monkeypatch):
    data, sampling, propensity, _ = _moderate_pipeline(seed=24, n1=300, n2=600, q=3)
    rng = np.random.default_rng(24)
    excluded = rng.random(data.n2) < 0.1
    part = partition_population(data, sampling, propensity, excluded, 0.8)
    system = build_stacked_system(data, sampling, propensity, partition=part)
    pipeline, fitted, _ = system._fitted
    hs = fitted.hs.copy()
    target = np.flatnonzero(data.target_mask)
    nan_kept, nan_excluded = target[~excluded][:5], target[excluded][:2]
    hs[nan_kept] = hs[nan_excluded] = np.nan
    rows = fitted._replace(hs=hs)
    for scale in (None, system.bandwidth):
        k, window, slopes = pipeline.trim.membership_slopes(rows.hs, rows.e1, part.delta_star, scale)
        with monkeypatch.context() as mp:
            mp.setattr(estimators, "_saturation", _smooth_every_row)
            k_ref, every_row, slopes_ref = pipeline.trim.membership_slopes(rows.hs, rows.e1, part.delta_star, scale)
        assert np.array_equal(every_row, np.arange(data.n))
        assert np.array_equal(k, k_ref, equal_nan=True)
        assert slopes.keys() == slopes_ref.keys()
        # the window's slopes, and exactly 0 on every other row
        outside = np.ones(data.n, dtype=bool)
        outside[window] = False
        for block in slopes:
            assert np.array_equal(slopes[block], slopes_ref[block][window], equal_nan=True)
            assert np.all(slopes_ref[block][outside] == 0.0)
        assert np.all(k[pipeline.trim.r1] == 0.0) and np.isnan(k[nan_kept]).all()
        assert np.isin(nan_kept, window).all()
        if scale is None:
            # at the membership's own scale the window is a few rows
            assert 0 < window.size < data.n
    # at the bandwidth, some rows are smoothed and some saturated
    assert 0.0 < np.mean((k > 0.0) & (k < 1.0)) < 1.0


def test_threshold_bandwidth_is_half_the_order_statistic_gap():
    prods = np.arange(1, 1001) / 1000.0
    # level 1 - 0.6/(1 - 0.2) = 0.25; the Hall-Sheather h at m=1000 is
    # 0.0673, so the order statistics sit at levels 0.1827 and 0.3173
    b = estimators.threshold_bandwidth(prods, 0.6, 0.2, 1e-8)
    assert b == pytest.approx(0.5 * (0.318 - 0.183), rel=1e-12)
    assert estimators.threshold_bandwidth(np.full(50, 0.3), 0.5, 0.0, 1e-8) == 1e-8


def _scipy_bandwidth(min_prods, p3_star, p1_hat, epsilon):
    # threshold_bandwidth as written on scipy's ndtri and numpy's quantile
    level = 1.0 - p3_star / (1.0 - p1_hat)
    z = ndtri(level)
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    h = (
        min_prods.size ** (-1.0 / 3.0)
        * ndtri(0.975) ** (2.0 / 3.0)
        * (1.5 * density ** 2 / (2.0 * z * z + 1.0)) ** (1.0 / 3.0)
    )
    lo, hi = np.quantile(min_prods, np.clip([level - h, level + h], 0.0, 1.0), method="inverted_cdf")
    return max(0.5 * float(hi - lo), epsilon)


@pytest.mark.parametrize("n_total, seed", [(300_000, [1, 0]), (50_000, [1, 1, 0]), (50_000, [1, 1, 1])])
def test_threshold_bandwidth_matches_scipy_on_the_bench_cohorts(n_total, seed):
    # the analyze workloads' cohorts and exclusions (bench/workloads.py), at
    # their p3* and at others
    data, truth = generate_cohort(DgpConfig(n_total=n_total), seed)
    target = data.target_mask
    excluded = (truth.e_flag | (data.x[:, 4] >= 3.0))[target]
    sampling, propensity = fit_sampling_score(data), fit_propensity_score(data)
    hs = predict_mean(sampling, data.x)[target][~excluded]
    e1 = predict_mean(propensity, take_rows(data.x, target))[~excluded]
    min_prods = hs * np.minimum(e1, 1.0 - e1)
    p1_hat = float(np.mean(excluded))
    for p3_star in (0.5, 0.8, 0.9, 0.95):
        got = estimators.threshold_bandwidth(min_prods, p3_star, p1_hat, 1e-8)
        assert got == _scipy_bandwidth(min_prods, p3_star, p1_hat, 1e-8)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    hnp.arrays(np.float64, st.integers(1, 50), elements=st.integers(0, 6).map(float)
               | st.floats(0.0, 1.0)),
    st.floats(0.0, 1.0) | st.integers(0, 50).map(lambda k: k / 50.0),
)
def test_order_statistic_is_numpys_inverted_cdf_quantile(values, p):
    expected = float(np.quantile(values, p, method="inverted_cdf"))
    assert estimators._order_statistic(values, p) == expected


def test_zero_weight_arm_raises():
    n1 = 20
    x1 = np.ones((n1, 1))
    data = make_dataset(x1, np.ones(n1), np.zeros(n1), np.ones((10, 1)))
    fixed = GlmFit(np.array([0.0]), BERN, True, 0, fixed=True)
    with pytest.raises(ZeroWeightError):
        hajek_ipw(data, _fit([0.0]), fixed, variance="none")


def _counting_expit(monkeypatch) -> tuple[list, list]:
    """Rebinds ``glm.expit`` in every extval module that binds it to a copy
    that records each call's input length and the phase it came in."""
    kernel = glm.expit
    calls, phase = [], ["setup"]

    def counted(x):
        calls.append((phase[0], np.size(x)))
        return kernel(x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "extval":
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, counted)
    return calls, phase


def test_bootstrap_replicate_evaluates_each_score_once(monkeypatch):
    # the sampling score is evaluated only inside its fit, the propensity
    # score inside its fit and once on the target rows; the partition and
    # the estimate read them back
    data, truth = generate_cohort(DgpConfig(n_total=50_000), [13, 1, 0])
    r1 = truth.excluded[data.target_mask]
    full = fit_sampling_score(data), fit_propensity_score(data)
    calls, phase = _counting_expit(monkeypatch)

    def point(ds, mask):
        phase[0] = "fit"
        sampling = fit_sampling_score(ds, start=full[0].coefficients)
        propensity = fit_propensity_score(ds, start=full[1].coefficients)
        outcome = fit_outcome_models(ds, GAUSS)
        phase[0] = "partition"
        part = partition_population(ds, sampling, propensity, mask, 0.8)
        phase[0] = "estimate"
        return trimmed_aipw(ds, sampling, propensity, outcome, part, variance="none").estimate

    idx_trial, idx_target = np.flatnonzero(data.trial_mask), np.flatnonzero(data.target_mask)
    assert isinstance(estimators._replicate(point, data, 7, idx_trial, idx_target, r1, 0), float)
    n, n1, n2 = data.n, data.n1, data.n2
    assert len({n, n1, n2}) == 3
    fits = [size for where, size in calls if where == "fit"]
    assert set(fits) == {n, n1} and len(fits) >= 4
    assert [call for call in calls if call[0] != "fit"] == [("partition", n2)]


@pytest.mark.parametrize("known", [None, 0.5])
def test_a_shared_core_gives_every_method_and_partition_its_own_estimate(known):
    # one core serves the untrimmed methods and the trimmed ones on two
    # partitions; each estimate equals the one from a core of its own, on
    # the first call and on the second, which reads what the first computed
    data, truth = generate_cohort(DgpConfig(n_total=50_000), [17, 3])
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data, known_probability=known)
    outcome = fit_outcome_models(data, GAUSS)
    r1 = truth.excluded[data.target_mask]
    parts = [partition_population(data, sampling, propensity, r1, p3) for p3 in (0.8, 0.9)]
    calls = [(hajek_ipw, ()), (augmented_ipw, (outcome,))]
    calls += [(trimmed_ipw, (part,)) for part in parts] + [(trimmed_aipw, (outcome, part)) for part in parts]
    core = estimators._Core(data, sampling, propensity, parts[1])
    for estimator, rest in calls * 2:
        shared = estimator(data, sampling, propensity, *rest, _core=core)
        assert shared == estimator(data, sampling, propensity, *rest), estimator.__name__
    assert len(core._trims) == 2


def test_estimates_leave_no_reference_cycles():
    # a bootstrap builds a core per replicate: arrays held in a reference
    # cycle would stay until the garbage collector ran, about 20 MB more per
    # 100-replicate bootstrap of 5.4k rows
    data, truth = generate_cohort(DgpConfig(n_total=20_000), [5, 2])
    sampling, propensity = fit_sampling_score(data), fit_propensity_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    part = partition_population(data, sampling, propensity, truth.excluded[data.target_mask], 0.8)
    gc.disable()
    try:
        gc.collect()
        for variance in ("none", "sandwich"):
            trimmed_aipw(data, sampling, propensity, outcome, part, variance=variance)
            hajek_ipw(data, sampling, propensity, variance=variance)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_scores_held_by_the_fits_equal_those_evaluated_again():
    # the means a fit holds, read on a subset of its rows or combined with
    # the partition's, are bit-identical to evaluating the scores afresh
    data, truth = generate_cohort(DgpConfig(n_total=50_000), [13, 1, 0])
    r1 = truth.excluded[data.target_mask]
    sampling, propensity = fit_sampling_score(data), fit_propensity_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    x_t = take_rows(data.x, data.target_mask)
    held = predict_mean(sampling, data.x).compress(data.target_mask)
    assert held.tobytes() == glm.expit(x_t @ sampling.coefficients).tobytes()
    part = partition_population(data, sampling, propensity, r1, 0.8)
    pipeline = estimators._Pipeline(data, sampling, propensity, outcome, part)
    at_fits = pipeline.rows(pipeline.nuisance)
    afresh = pipeline.rows(pipeline.nuisance.copy())
    for name in ("hs", "e1", "w1", "w0", "k"):
        assert getattr(at_fits, name).tobytes() == getattr(afresh, name).tobytes()
    # a partition from the same fits without their held means
    bare = [dataclasses.replace(fit, _fitted=None) for fit in (sampling, propensity)]
    again = partition_population(data, *bare, r1, 0.8)
    assert again.delta_star == part.delta_star and np.array_equal(again.labels, part.labels)


def test_bootstrap_deterministic_and_close_to_classic_se():
    rng = np.random.default_rng(44)
    n1, n2 = 500, 50
    x1 = np.ones((n1, 1))
    a = (rng.random(n1) < 0.5).astype(float)
    y = rng.standard_normal(n1)
    data = make_dataset(x1, a, y, np.ones((n2, 1)))

    def mean_estimator(ds, _mask):
        return float(ds.y[ds.trial_mask].mean())

    var1, lo1, hi1 = bootstrap_ci(mean_estimator, data, 400, seed=9)
    var2, lo2, hi2 = bootstrap_ci(mean_estimator, data, 400, seed=9)
    assert (var1, lo1, hi1) == (var2, lo2, hi2)
    classic = np.std(y, ddof=1) / np.sqrt(n1)
    assert np.sqrt(var1) == pytest.approx(classic, rel=0.10)


def test_bootstrap_constant_estimator():
    data = make_dataset(np.ones((10, 1)), np.tile([1.0, 0.0], 5), np.zeros(10), np.ones((5, 1)))
    var, lo, hi = bootstrap_ci(lambda ds, m: 3.25, data, 120, seed=1)
    assert var == 0.0 and lo == 3.25 and hi == 3.25


def test_bootstrap_rep_floor_and_failure_share():
    data = make_dataset(np.ones((10, 1)), np.tile([1.0, 0.0], 5), np.zeros(10), np.ones((5, 1)))
    with pytest.raises(ConfigError):
        bootstrap_ci(lambda ds, m: 0.0, data, 50, seed=1)

    def flaky(ds, _mask):
        raise SingularSystemError("boom")

    with pytest.raises(NumericalError):
        bootstrap_ci(flaky, data, 120, seed=1)

    # only ExtvalError and LinAlgError count as failed replicates; a bug propagates
    def buggy(ds, _mask):
        raise TypeError("not a numerical failure")

    with pytest.raises(TypeError):
        bootstrap_ci(buggy, data, 120, seed=1)


def test_bootstrap_draw_contract(monkeypatch):
    # replicate r gets the rows of rng.choice over the trial, then the target
    # row indices, from default_rng([seed, r]), and the r1 flags of its target rows;
    # one worker, so the draws recorded here are those the replicates saw
    # (test_bootstrap_identical_at_one_and_two_workers carries the contract over)
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    rng = np.random.default_rng(45)
    n = 60
    s = (rng.random(n) < 0.4).astype(float)
    a = np.where(s == 1, (rng.random(n) < 0.5).astype(float), np.nan)
    y = np.where(s == 1, rng.standard_normal(n), np.nan)
    data = Dataset(s, a, y, np.column_stack([np.ones(n), np.arange(n, dtype=float)]))
    r1 = rng.random(int(n - s.sum())) < 0.3
    seen = []

    def record(ds, mask):
        seen.append((ds, mask))
        return 0.0

    bootstrap_ci(record, data, 100, seed=17, r1_mask=r1)
    idx_trial, idx_target = np.flatnonzero(s == 1), np.flatnonzero(s == 0)
    for r, (ds, mask) in enumerate(seen[:20]):
        ref = np.random.default_rng([17, r])
        bi = np.concatenate([
            ref.choice(idx_trial, size=idx_trial.size, replace=True),
            ref.choice(idx_target, size=idx_target.size, replace=True),
        ])
        ref_mask = r1[np.searchsorted(idx_target, bi[idx_trial.size:])]
        np.testing.assert_array_equal(ds.x, data.x[bi])
        for got, want in ((ds.s, s), (ds.a, a), (ds.y, y)):
            np.testing.assert_array_equal(got, want[bi])
        np.testing.assert_array_equal(mask, ref_mask)


def _draw_data(n=60, seed=45):
    # x[:, 1] holds each row's index, so a replicate's rows can be read off
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.4).astype(float)
    a = np.where(s == 1, (rng.random(n) < 0.5).astype(float), np.nan)
    y = np.where(s == 1, rng.standard_normal(n), np.nan)
    data = Dataset(s, a, y, np.column_stack([np.ones(n), np.arange(n, dtype=float)]))
    return data, rng.random(int(n - s.sum())) < 0.3


def test_bootstrap_identical_at_one_and_two_workers(monkeypatch):
    data, r1 = _draw_data()
    calls = []

    def estimator(ds, mask):
        # depends on every drawn row, in order, and on the r1 flags
        calls.append(None)
        value = float(ds.x[:, 1] @ np.sin(np.arange(ds.n)) + mask @ np.cos(np.arange(mask.size)))
        if value % 1.0 < 0.1:
            raise SingularSystemError("singular on this draw")
        return value

    results, messages = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
        calls.clear()
        monkeypatch.setattr(estimators, "MAX_ERROR_SHARE", 0.5)
        results[workers] = bootstrap_ci(estimator, data, 120, seed=17, r1_mask=r1)
        monkeypatch.setattr(estimators, "MAX_ERROR_SHARE", 0.01)
        with pytest.raises(NumericalError) as err:
            bootstrap_ci(estimator, data, 120, seed=17, r1_mask=r1)
        messages[workers] = str(err.value)
        # the serial loop calls here for every replicate; at two workers this
        # process runs the first half and a forked worker the second
        assert len(calls) == (240 if workers == 1 else 120)
    assert results[1] == results[2]
    assert messages[1] == messages[2]
    assert "SingularSystemError: " in messages[1]


def test_bootstrap_counts_failures_by_class(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    data, _ = _draw_data()

    def estimator(ds, _mask):
        first = int(ds.x[0, 1])
        if first % 3 == 0:
            raise SingularSystemError("singular")
        if first % 3 == 1:
            return float("nan")
        return 1.0

    with pytest.raises(NumericalError) as err:
        bootstrap_ci(estimator, data, 100, seed=3)
    counts = dict(
        part.rsplit(": ", 1) for part in str(err.value).split("(", 1)[1].rstrip(")").split(", ")
    )
    assert set(counts) == {"SingularSystemError", "non-finite estimate"}
    assert str(err.value).startswith(
        f"bootstrap failed: {sum(map(int, counts.values()))}/100 replicates errored"
    )


def test_bootstrap_bug_in_a_worker_propagates_and_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    data, r1 = _draw_data()

    def buggy(ds, mask):
        if mask.sum() > 6:
            raise TypeError("not a numerical failure")
        return 0.0

    with pytest.raises(TypeError, match="not a numerical failure"):
        bootstrap_ci(buggy, data, 100, seed=5, r1_mask=r1)
    assert multiprocessing.active_children() == []
    with pytest.raises(NumericalError):
        bootstrap_ci(lambda ds, m: float("inf"), data, 100, seed=5)
    assert multiprocessing.active_children() == []
    bootstrap_ci(lambda ds, m: 1.0, data, 100, seed=5)
    assert multiprocessing.active_children() == []


def test_bootstrap_runs_serially_inside_a_study_worker(monkeypatch, tmp_path):
    from extval import simulation

    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    data, _ = _draw_data()

    def replication(config, rep):
        # every replicate reports its process: a nested pool would not be this one
        _, lo, hi = bootstrap_ci(lambda ds, m: float(os.getpid()), data, 100, seed=rep)
        (tmp_path / f"{rep}.txt").write_text(f"{os.getpid()} {lo} {hi}")
        return {cell: (0.0, -1.0, 1.0) for cell in config.cells}

    monkeypatch.setattr(simulation, "_one_replication", replication)
    cfg = simulation.StudyConfig(
        dgp=DgpConfig(n_total=20_000), replications=4, p3_stars=(0.8,), methods=("ipw",),
        assumptions=("gpd",), oracle_draws=1_000,
    )
    assert simulation.run_study(cfg, n_jobs=2).failures == 0
    # six tasks, the two Monte Carlo truths last: replications 0-2 ran in this
    # process next to the pool, replication 3 in the study's forked worker;
    # none started a pool of its own
    pids = []
    for rep in range(4):
        pid, lo, hi = (tmp_path / f"{rep}.txt").read_text().split()
        assert float(lo) == float(hi) == float(pid)
        pids.append(int(pid))
    assert pids[:3] == [os.getpid()] * 3
    assert pids[3] != os.getpid()
