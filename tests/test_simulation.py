import functools
import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from extval import (
    ConfigError,
    DgpConfig,
    GlmFamily,
    SingularSystemError,
    StudyConfig,
    calibrate_intercept,
    efficiency_bound_mc,
    generate_cohort,
    run_study,
    true_tau_oracle,
)
from extval import glm, simulation

GAUSS = GlmFamily.GAUSSIAN_IDENTITY
BERN = GlmFamily.BERNOULLI_LOGIT

# no exclusions and zero slopes: every draw participates with expit(b0)
FLAT = DgpConfig(beta=(0.0,) * 5, exclusions=False, e_prob=0.0)


def test_calibrate_trivial_half():
    b0 = calibrate_intercept(FLAT, 0.5, mc_draws=200_000)
    assert b0 == pytest.approx(0.0, abs=1e-6)


def test_calibrate_trivial_one_percent():
    b0 = calibrate_intercept(FLAT, 0.01, mc_draws=200_000)
    assert b0 == pytest.approx(-4.59512, abs=1e-4)


def test_calibrate_rejects_unattainable_target():
    with pytest.raises(ConfigError):
        calibrate_intercept(FLAT, 1.5)


@pytest.mark.parametrize("config, draws, expected", [
    # the default process, with exclusions, over two chunks of draws
    (DgpConfig(), 1_200_000, "-0x1.e096000000000p+2"),
    # acceptance 9's weak-selection process
    (DgpConfig(beta=(0.0, -0.2, 0.1, 0.1, 0.1), exclusions=False, e_prob=0.0), 300_000,
     "-0x1.2847800000000p+2"),
])
def test_calibrate_intercept_pinned_values(config, draws, expected):
    # pinned to the bit: a change to the draws, their chunks or the
    # bisection's stop moves them
    assert calibrate_intercept(config, 0.01, mc_draws=draws).hex() == expected


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


@pytest.mark.parametrize("given", [False, True])
@pytest.mark.parametrize("reps", [1, 3])
def test_run_study_is_bit_identical_at_any_worker_count(reps, given):
    # the truths are the last tasks: at two and three processes they run in
    # a forked worker's share, alone or beside a replication
    cfg = StudyConfig(
        dgp=DgpConfig(n_total=20_000), replications=reps, p3_stars=(0.8,),
        methods=("ipw", "aipw"), assumptions=("gpd", "epd"), master_seed=27, oracle_draws=200_000,
    )
    true_tau = -0.25 if given else None
    reports = [repr(run_study(cfg, n_jobs=n, true_tau=true_tau)) for n in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]
    want = true_tau if given else true_tau_oracle(cfg.dgp, cfg.oracle_draws)
    assert f"true_tau={want!r}," in reports[0]


def test_an_error_in_the_truth_reaches_the_caller_with_its_class(monkeypatch):
    def failing(config, draws):
        raise SingularSystemError(f"in process {os.getpid()}")

    monkeypatch.setattr(simulation, "true_tau_oracle", failing)
    cfg = StudyConfig(
        dgp=DgpConfig(n_total=20_000), replications=1, p3_stars=(0.8,), methods=("ipw",),
        assumptions=("gpd",), master_seed=2, oracle_draws=1_000,
    )
    with pytest.raises(SingularSystemError) as err:
        run_study(cfg, n_jobs=2)
    # three tasks on two processes: the truth ran alone in the forked worker
    assert int(str(err.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


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
    from extval import glm, simulation

    def broken(*args, **kwargs):
        raise error("from the estimator")

    monkeypatch.setattr(simulation, "trimmed_ipw", broken)
    cfg = StudyConfig(
        dgp=DgpConfig(n_total=20_000), replications=1, p3_stars=(0.8,),
        methods=("ipw",), assumptions=("gpd",), master_seed=2, oracle_draws=100_000,
    )
    if propagates:
        with pytest.raises(error):
            simulation._replication(cfg, 0)
    else:
        result = simulation._replication(cfg, 0)
        assert isinstance(result, error)


# -- the Monte Carlo truth, evaluated in blocks -------------------------------
# References: the oracle, the nominal trial size and the efficiency bound as
# they were before their rows were blocked, each evaluating whole chunks.

@functools.lru_cache(maxsize=None)
def _reference_oracle(config, mc_draws, seed=1_234_567):
    rng = np.random.default_rng(seed)
    total = 0.0
    weight = 0.0
    for chunk in simulation._chunks(mc_draws, 1_000_000):
        x, e, excl = simulation._covariates(config, rng, chunk)
        p_s = glm.expit(x @ np.asarray(config.beta)) * ~excl
        w = 1.0 - p_s
        total += float(np.sum(simulation._cate(config, x, e) * w))
        weight += float(np.sum(w))
    return total / weight


@functools.lru_cache(maxsize=None)
def _reference_nominal_trial_size(config, draws, seed=777_001):
    rng = np.random.default_rng(seed)
    x, _, excl = simulation._covariates(config, rng, draws)
    p = glm.expit(x @ np.asarray(config.beta)) * ~excl
    return int(round(config.n_total * float(np.mean(p))))


@functools.lru_cache(maxsize=None)
def _reference_efficiency_bound(config, mc_draws, seed=9_090):
    rng = np.random.default_rng(seed)
    e1 = config.treatment_prob
    e0 = 1.0 - e1
    num = 0.0
    den = 0.0
    tau_num = 0.0
    tau_den = 0.0
    draws = []
    for chunk in simulation._chunks(mc_draws, 1_000_000):
        x, e, _ = simulation._covariates(config, rng, chunk)
        p = glm.expit(x @ np.asarray(config.beta))
        sel = p + config.subsample_rate * (1.0 - p)
        h = p / sel
        cate = simulation._cate(config, x, e)
        draws.append((h, sel, cate, x, e))
        tau_num += float(np.sum(cate * (1.0 - p)))
        tau_den += float(np.sum(1.0 - p))
    tau = tau_num / tau_den
    for h, sel, cate, x, e in draws:
        if config.outcome_family is GlmFamily.BERNOULLI_LOGIT:
            mu1, mu0 = simulation._outcome_means(config, x, e)
            s1 = glm.expit(mu1) * (1.0 - glm.expit(mu1))
            s0 = glm.expit(mu0) * (1.0 - glm.expit(mu0))
        else:
            s1 = 1.0
            s0 = 1.0
        integrand = ((1.0 - h) ** 2 / h) * (s1 / e1 + s0 / e0) + (1.0 - h) * (cate - tau) ** 2
        num += float(np.sum(integrand * sel))
        den += float(np.sum(sel))
    q0 = 1.0 - float(np.sum([np.sum(h * sel) for h, sel, *_ in draws])) / den
    return (num / den) / q0 ** 2


# n_total 2**80 scales the mean participation exactly to an integer, so the
# nominal trial size carries every bit of it
_MC_CONFIGS = [
    DgpConfig(n_total=2**80, outcome_family=family, exclusions=exclusions)
    for family in (GAUSS, BERN)
    for exclusions in (True, False)
]
_MC_DRAWS = [1, 15, 17, "block-1", "block+1", 1_000_003, 2_000_001]


def _draw_count(draws):
    offsets = {"block-1": -1, "block+1": 1}
    return simulation.MC_BLOCK + offsets[draws] if draws in offsets else draws


@pytest.mark.parametrize("block", [16, None], ids=["block16", "default"])
@pytest.mark.parametrize("draws", _MC_DRAWS, ids=str)
@pytest.mark.parametrize(
    "config", _MC_CONFIGS,
    ids=lambda c: f"{c.outcome_family.name}-{'excl' if c.exclusions else 'noexcl'}",
)
def test_blocked_truth_is_bit_identical_to_whole_chunks(monkeypatch, config, draws, block):
    if block is not None:
        monkeypatch.setattr(simulation, "MC_BLOCK", block)
    draws = _draw_count(draws)
    assert true_tau_oracle(config, draws).hex() == _reference_oracle(config, draws).hex()
    monkeypatch.setattr(simulation, "NOMINAL_DRAWS", draws)
    assert simulation._nominal_trial_size(config) == _reference_nominal_trial_size(config, draws)


@pytest.mark.parametrize("block", [16, None], ids=["block16", "default"])
@pytest.mark.parametrize("draws", [1, 17, "block+1", 2_000_001], ids=str)
@pytest.mark.parametrize("family", [GAUSS, BERN], ids=lambda f: f.name)
def test_blocked_efficiency_bound_is_bit_identical(monkeypatch, family, draws, block):
    if block is not None:
        monkeypatch.setattr(simulation, "MC_BLOCK", block)
    draws = _draw_count(draws)
    config = DgpConfig(outcome_family=family, exclusions=False)
    with warnings.catch_warnings():
        # the default participation model samples score products below 1e-6
        warnings.simplefilter("ignore", RuntimeWarning)
        blocked = efficiency_bound_mc(config, draws)
        reference = _reference_efficiency_bound(config, draws)
    assert blocked.hex() == reference.hex()


def test_mc_block_is_a_multiple_of_16():
    assert simulation.MC_BLOCK > 0 and simulation.MC_BLOCK % 16 == 0


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_oracle_holds_one_chunk_of_draws():
    # one 1M-draw chunk: 32 MB of normals, 8 MB of uniforms and two
    # chunk-length arrays; whole-chunk arithmetic peaked at 131.6 MB
    peak = _peak_mb(true_tau_oracle, DgpConfig(outcome_family=BERN), 4_000_000)
    assert peak <= 64, f"peak {peak:.1f} MB"


def test_efficiency_bound_keeps_only_what_its_second_pass_reads():
    # kept: h, sel, cate and the variance term, 32 MB per 1M-draw chunk;
    # keeping each chunk's design matrix too peaked at 193.6 MB
    config = DgpConfig(outcome_family=BERN, exclusions=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        peak = _peak_mb(efficiency_bound_mc, config, 2_000_000)
    assert peak <= 120, f"peak {peak:.1f} MB"
