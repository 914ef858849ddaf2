import numpy as np
import pytest

from extval import (
    ConfigError,
    DgpConfig,
    GlmFamily,
    SingularSystemError,
    StudyConfig,
    calibrate_intercept,
    dgp_covariate_sampler,
    efficiency_bound_mc,
    generate_cohort,
    run_study,
    true_tau_oracle,
)

GAUSS = GlmFamily.GAUSSIAN_IDENTITY
BERN = GlmFamily.BERNOULLI_LOGIT

NO_EXCLUSION = DgpConfig(exclusions=False, e_prob=0.0)


def test_calibrate_trivial_half():
    sampler = dgp_covariate_sampler(NO_EXCLUSION)
    b0 = calibrate_intercept(np.zeros(4), 0.5, sampler, mc_draws=200_000)
    assert b0 == pytest.approx(0.0, abs=1e-6)


def test_calibrate_trivial_one_percent():
    sampler = dgp_covariate_sampler(NO_EXCLUSION)
    b0 = calibrate_intercept(np.zeros(4), 0.01, sampler, mc_draws=200_000)
    assert b0 == pytest.approx(-4.59512, abs=1e-4)


def test_calibrate_rejects_unattainable_target():
    with pytest.raises(ConfigError):
        calibrate_intercept(np.zeros(4), 1.5, dgp_covariate_sampler(NO_EXCLUSION))


def test_cohort_shapes_and_exclusion():
    cfg = DgpConfig(n_total=50_000)
    data, truth = generate_cohort(cfg, seed=[3, 0])
    assert data.n1 + data.n2 == data.n
    assert 350 < data.n1 < 650          # ~1% of 50k
    assert 4500 < data.n2 < 5400        # ~10% of nonparticipants
    # excluded rows never participate
    assert not np.any(truth.excluded & data.trial_mask)
    assert not np.any(truth.e_flag & data.trial_mask)
    assert truth.cate.shape == (data.n,)


def test_cohort_determinism():
    cfg = DgpConfig(n_total=20_000)
    d1, t1 = generate_cohort(cfg, seed=[5, 1])
    d2, t2 = generate_cohort(cfg, seed=[5, 1])
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(d1.y[d1.trial_mask], d2.y[d2.trial_mask])
    assert np.array_equal(t1.cate, t2.cate)


def test_cohort_participation_rate_near_one_percent():
    cfg = DgpConfig(n_total=50_000)
    total_trials = 0
    for r in range(30):
        data, _ = generate_cohort(cfg, seed=[11, r])
        total_trials += data.n1
    rate = total_trials / (30 * cfg.n_total)
    assert rate == pytest.approx(0.01, abs=0.001)


def test_binary_cohort_outcomes_are_binary():
    cfg = DgpConfig(n_total=20_000, outcome_family=BERN)
    data, _ = generate_cohort(cfg, seed=[7, 7])
    y = data.y[data.trial_mask]
    assert set(np.unique(y)) <= {0.0, 1.0}


def test_full_scale_cohort_and_partition_contract():
    from extval import fit_propensity_score, fit_sampling_score, partition_population

    data, truth = generate_cohort(DgpConfig(n_total=100_000), seed=[23, 0])
    assert 850 < data.n1 < 1150         # ~1% participation
    assert 9300 < data.n2 < 10_500      # ~10% of nonparticipants
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    part = partition_population(
        data, sampling, propensity, truth.excluded[data.target_mask], 0.8
    )
    assert part.p_hat[2] == pytest.approx(0.8, abs=1e-6)
    # exclusion share: rare flag (1%) plus the far covariate tail (~0.13%)
    p1_expected = 0.01 + 0.99 * 0.00135
    se = np.sqrt(p1_expected * (1 - p1_expected) / data.n2)
    assert abs(part.p_hat[0] - p1_expected) < 4 * se


def test_true_tau_no_selection_shift():
    cfg = DgpConfig(
        beta=(0.0, 0.0, 0.0, 0.0, 0.0),
        theta0=(1.0, 2.0, 2.0, 1.0, 1.0),
        theta1=(0.0, 1.0, 1.0, 1.0, 1.0),
        effect_shift=0.0,
        exclusions=False,
        e_prob=0.0,
    )
    tau = true_tau_oracle(cfg, mc_draws=1_000_000)
    assert tau == pytest.approx(-1.0, abs=0.01)


def test_true_tau_binary_null_effect():
    cfg = DgpConfig(
        beta=(0.0, 0.0, 0.0, 0.0, 0.0),
        theta0=(1.0, 2.0, 2.0, 1.0, 1.0),
        theta1=(1.0, 2.0, 2.0, 1.0, 1.0),
        effect_shift=0.0,
        exclusions=False,
        e_prob=0.0,
        outcome_family=BERN,
    )
    assert true_tau_oracle(cfg, mc_draws=500_000) == pytest.approx(0.0, abs=1e-12)


def _smoke_study(n_jobs=1, reps=4):
    cfg = StudyConfig(
        dgp=DgpConfig(n_total=20_000),
        replications=reps,
        p3_stars=(0.8,),
        methods=("ipw", "aipw"),
        assumptions=("gpd", "epd"),
        master_seed=314,
        oracle_draws=400_000,
    )
    return run_study(cfg, n_jobs=n_jobs)


def test_run_study_smoke_shape():
    report = _smoke_study()
    assert len(report.cells) == 4
    assert report.failures == 0
    assert report.sd_defined
    for cell in report.cells:
        assert np.isfinite(cell.bias) and np.isfinite(cell.sd)
        assert 0.0 <= cell.coverage <= 1.0
        assert cell.mse >= cell.bias**2 - 1e-12
        assert cell.trial_size == pytest.approx(200, abs=15)
        assert cell.target_size == pytest.approx(1980, abs=20)


def test_run_study_parallel_determinism():
    seq = _smoke_study(n_jobs=1)
    par = _smoke_study(n_jobs=2)
    assert seq == par


def test_run_study_single_replication_flags_undefined_sd():
    cfg = StudyConfig(
        dgp=DgpConfig(n_total=20_000),
        replications=1,
        p3_stars=(0.8,),
        methods=("aipw",),
        assumptions=("epd",),
        master_seed=1,
        oracle_draws=200_000,
    )
    report = run_study(cfg)
    assert not report.sd_defined
    assert np.isnan(report.cells[0].sd)


def test_study_report_csv_layout():
    report = _smoke_study()
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "trial_size,target_size,proportion,method,assumption,bias,mse,sd,coverage"
    assert len(lines) == 5
    assert lines[1].split(",")[3] in ("IPW", "AIPW")


def test_efficiency_bound_hand_value():
    cfg = DgpConfig(
        beta=(0.0, 0.0, 0.0, 0.0, 0.0),
        theta0=(0.0, 1.0, 1.0, 1.0, 1.0),
        theta1=(1.0, 1.0, 1.0, 1.0, 1.0),   # constant unit effect
        subsample_rate=1.0,
        exclusions=False,
        e_prob=0.0,
    )
    bound = efficiency_bound_mc(cfg, mc_draws=400_000)
    assert bound == pytest.approx(8.0, abs=0.05)


def test_efficiency_bound_census_suppression():
    # participation near one: the weighting term collapses to sigma-sum / h
    cfg = DgpConfig(
        beta=(float(np.log(0.99 / 0.01)), 0.0, 0.0, 0.0, 0.0),
        theta0=(0.0, 1.0, 1.0, 1.0, 1.0),
        theta1=(1.0, 1.0, 1.0, 1.0, 1.0),
        subsample_rate=1.0,
        exclusions=False,
        e_prob=0.0,
    )
    bound = efficiency_bound_mc(cfg, mc_draws=200_000)
    assert bound == pytest.approx(4.0 / 0.99, abs=0.01)


def test_efficiency_bound_guards():
    with pytest.raises(ConfigError):
        efficiency_bound_mc(DgpConfig())
    diverging = DgpConfig(
        beta=(-25.0, -2.0, 1.0, 1.0, 1.0), exclusions=False, e_prob=0.0,
    )
    with pytest.warns(RuntimeWarning):
        efficiency_bound_mc(diverging, mc_draws=100_000)


@pytest.mark.parametrize("error, propagates", [(TypeError, True), (SingularSystemError, False)])
def test_replication_block_counts_only_numerical_failures(monkeypatch, error, propagates):
    from extval import simulation

    def broken(*args, **kwargs):
        raise error("from the estimator")

    monkeypatch.setattr(simulation, "trimmed_ipw", broken)
    cfg = StudyConfig(
        dgp=DgpConfig(n_total=20_000), replications=1, p3_stars=(0.8,),
        methods=("ipw",), assumptions=("gpd",), master_seed=2, oracle_draws=100_000,
    )
    if propagates:
        with pytest.raises(error):
            simulation._replication_block(cfg, [0])
    else:
        [result] = simulation._replication_block(cfg, [0])
        assert isinstance(result, error)
