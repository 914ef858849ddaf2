import numpy as np
import pytest
from scipy.special import logit

from extval import (
    ConfigError,
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
    sandwich_variance,
    trimmed_aipw,
    trimmed_ipw,
)
from extval import estimators
from extval.estimators import _hajek

BERN = GlmFamily.BERNOULLI_LOGIT
GAUSS = GlmFamily.GAUSSIAN_IDENTITY


def _fit(coef, family=BERN):
    return GlmFit(np.asarray(coef, dtype=float), family, True, 1, 0.0)


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
    k = np.ones(n_target)
    return PartitionResult(
        labels=labels, k_smooth=k, delta_star=delta,
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


def _moderate_pipeline(seed=77, n1=200, n2=400, q=3):
    # well-behaved overlap so stacked systems are comfortably regular
    rng = np.random.default_rng(seed)
    x1 = np.column_stack([np.ones(n1), rng.standard_normal((n1, q - 1)) + 0.4])
    x2 = np.column_stack([np.ones(n2), rng.standard_normal((n2, q - 1))])
    a = (rng.random(n1) < 0.5).astype(float)
    y = np.where(a == 1, x1 @ np.ones(q), x1 @ np.r_[0.0, np.ones(q - 1)])
    y = y + rng.standard_normal(n1)
    data = make_dataset(x1, a, y, x2)
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    return data, sampling, propensity, outcome


def test_stacked_dimensions_and_contrast_ipw():
    data, sampling, propensity, _ = _moderate_pipeline(q=5)
    part = partition_population(data, sampling, propensity, None, 0.8)
    system = build_stacked_system("ipw", data, sampling, propensity, partition=part)
    assert system.dim == 5 + 5 + 1 + 2 == 13
    expected = np.zeros(13)
    expected[-2], expected[-1] = 1.0, -1.0
    assert np.array_equal(system.eta, expected)


def test_stacked_dimensions_and_contrast_aipw():
    data, sampling, propensity, outcome = _moderate_pipeline(q=5)
    part = partition_population(data, sampling, propensity, None, 0.8)
    system = build_stacked_system("aipw", data, sampling, propensity, outcome, part)
    assert system.dim == 4 * 5 + 1 + 3 == 24
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
    system = build_stacked_system(kind, data, sampling, propensity, fits, part)
    assert report.variance_method == "sandwich" and report.variance > 0
    assert report.estimate == pytest.approx(system.eta @ system.xi, rel=1e-12, abs=0.0)


def test_stacked_fixed_propensity_omits_its_block():
    data, sampling, _, _ = _moderate_pipeline(q=3)
    fixed = fit_propensity_score(data, known_probability=0.5)
    part = partition_population(data, sampling, fixed, None, 0.8)
    system = build_stacked_system("ipw", data, sampling, fixed, partition=part)
    assert system.dim == 3 + 1 + 2


def test_stacked_stationarity_at_plugin():
    data, sampling, propensity, outcome = _moderate_pipeline(seed=5, n1=250, n2=250)
    part = partition_population(data, sampling, propensity, None, 0.9)
    for kind, fits in (("ipw", None), ("aipw", outcome)):
        system = build_stacked_system(kind, data, sampling, propensity, fits, part)
        assert np.max(np.abs(system.psi(system.xi).mean(axis=0))) <= 1e-5


def test_stacked_rejects_foreign_fits():
    data, sampling, propensity, _ = _moderate_pipeline(seed=6)
    other, *_ = _moderate_pipeline(seed=60)
    foreign = fit_sampling_score(other)
    with pytest.raises(StationarityError):
        build_stacked_system("ipw", data, foreign, propensity)


def test_sandwich_on_plain_mean_system():
    rng = np.random.default_rng(30)
    y = rng.standard_normal(400) * 2.0 + 1.0
    mu = float(y.mean())
    system = StackedSystem(
        xi=np.array([mu]),
        eta=np.array([1.0]),
        psi=lambda xi: (y - xi[0])[:, None],
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


def test_sandwich_does_not_depend_on_difference_step(monkeypatch):
    # a cohort whose threshold sits between sparse target min-products:
    # differencing the membership at its own 1e-8 scale gave SEs of 1.23,
    # 1.93 and 2.00 at these steps against a bootstrap SE near 0.39
    data, truth = generate_cohort(DgpConfig(n_total=50_000), [820_700, 2])
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    part = partition_population(data, sampling, propensity, truth.excluded[data.target_mask], 0.8)
    ses = []
    for step in (1e-4, 1e-5, 1e-6):
        monkeypatch.setattr(estimators, "FD_REL_STEP", step)
        ses.append(trimmed_aipw(data, sampling, propensity, outcome, part).se)
    assert np.all(np.isfinite(ses))
    assert max(ses) - min(ses) <= 1e-3 * min(ses)


def test_threshold_bandwidth_is_half_the_order_statistic_gap():
    prods = np.arange(1, 1001) / 1000.0
    # level 1 - 0.6/(1 - 0.2) = 0.25; the Hall-Sheather h at m=1000 is
    # 0.0673, so the order statistics sit at levels 0.1827 and 0.3173
    b = estimators.threshold_bandwidth(prods, 0.6, 0.2, 1e-8)
    assert b == pytest.approx(0.5 * (0.318 - 0.183), rel=1e-12)
    assert estimators.threshold_bandwidth(np.full(50, 0.3), 0.5, 0.0, 1e-8) == 1e-8


def test_zero_weight_arm_raises():
    n1 = 20
    x1 = np.ones((n1, 1))
    data = make_dataset(x1, np.ones(n1), np.zeros(n1), np.ones((10, 1)))
    fixed = GlmFit(np.array([0.0]), BERN, True, 0, 0.0, fixed=True)
    with pytest.raises(ZeroWeightError):
        hajek_ipw(data, _fit([0.0]), fixed, variance="none")


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
