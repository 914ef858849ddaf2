"""End-to-end statistical acceptance suite.

Every test prints one summary line (ACCEPTANCE <n> <name>: PASS/FAIL
with the measured numbers) before asserting, so the full picture
survives in the log even when a clause fails. The replication studies
are the expensive part; they use two worker processes and fixed master
seeds, so every number below is reproducible bit for bit.

Known state: checks 1 and 7 fail on interval coverage alone.

* Dispersion (checks 1 and 3). The sd clauses compare the package's
  replication SD with that of an oracle AIPW which knows every nuisance
  (true pooled sampling score, propensity 0.5, true outcome means,
  population threshold), evaluated on the same cohorts. Measured SDs of
  the EPD-scaled estimate: 0.284 vs oracle 0.281 (continuous), 0.259
  vs 0.261 (continuous smoke), 0.097 vs 0.095 (binary); the per-cohort
  correlation of the two estimates is 0.97. The efficient-influence trial-residual
  term alone gives asymptotic SDs of 0.31 (continuous) and 0.11
  (binary), so fixed bands of [0.10, 0.16], [0.085, 0.175] and
  [0.035, 0.06] were out of reach for any estimator of this estimand;
  the clauses use test 9's attainment convention instead (variance
  ratio in [0.85, 1.15]).
* Sandwich vs bootstrap (check 7). The Jacobian's threshold column
  used to difference a membership smoothed at 1e-8 with a step near
  1e-7, so it counted the one or two target rows inside that window;
  on dataset 2 the SE was 1.23, 1.93 and 2.00 at relative steps 1e-4,
  1e-5 and 1e-6 against a bootstrap SE of 0.39. The Jacobian now
  smooths the membership at a Hall-Sheather bandwidth (5-9e-5 here,
  against thresholds of 1.4-2.8e-4) and gives 0.368 at every step.
* Coverage (checks 1 and 7, not mended). The plug-in sandwich
  undercovers under heavy-tailed weights: the median per-arm Kish
  effective sample size is about 18 (13 for the smaller arm). Over the
  first 300 cohorts of check 1 the SD of the well-represented estimate
  is 0.378 while the RMS
  sandwich SE is 0.319 (0.349 with the old step-dependent Jacobian,
  whose excess was erratic: 10% of cohorts above the step-free SE by
  more than 54%, the worst by 3.1x). Coverage reads 0.891 in check 1
  and about 0.82 in check 7.
"""

import numpy as np
from scipy.special import expit

from extval import (
    DgpConfig,
    GlmFamily,
    GlmFit,
    SensitivityInput,
    StudyConfig,
    bootstrap_ci,
    calibrate_intercept,
    efficiency_bound_mc,
    epd_estimate,
    fit_glm,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    generate_cohort,
    gpd_estimate,
    hajek_ipw,
    partition_population,
    run_study,
    solve_threshold,
    augmented_ipw,
    trimmed_aipw,
    trimmed_ipw,
    true_tau_oracle,
)
from extval.partition import _smooth_k
from extval.simulation import _covariates, _outcome_means

GAUSS = GlmFamily.GAUSSIAN_IDENTITY
BERN = GlmFamily.BERNOULLI_LOGIT
N_JOBS = 2


def _report(num, name, clauses):
    ok = all(passed for passed, _ in clauses.values())
    details = "; ".join(f"{k}: {'ok' if p else 'FAIL'} ({d})" for k, (p, d) in clauses.items())
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {details}")
    assert ok, f"acceptance {num} {name}: {details}"


def _band(value, lo, hi):
    return (lo <= value <= hi), f"{value:.4f} in [{lo}, {hi}]"


def _study(family, reps, seed, methods=("aipw",), assumptions=("epd",), p3=(0.8,),
           n_total=100_000):
    cfg = StudyConfig(
        dgp=DgpConfig(n_total=n_total, outcome_family=family),
        replications=reps,
        p3_stars=p3,
        methods=methods,
        assumptions=assumptions,
        master_seed=seed,
    )
    return run_study(cfg, n_jobs=N_JOBS)


def _cell(report, proportion, method, assumption):
    """The study cell of ``report`` at (p3*, method, assumption)."""
    return next(c for c in report.cells
                if (c.proportion, c.method, c.assumption) == (proportion, method, assumption))


def _population_threshold(config, p3_star, mc_draws=2_000_000, seed=820_050):
    """Threshold at which a p3* share of the target population (the
    nonparticipants) is non-excluded with min score product above it,
    under the true pooled sampling score p / (p + r (1 - p))."""
    x, _, excl = _covariates(config, np.random.default_rng(seed), mc_draws)
    p = expit(x @ np.asarray(config.beta)) * ~excl
    rate = config.subsample_rate
    e_min = min(config.treatment_prob, 1.0 - config.treatment_prob)
    prods = (p / (p + rate * (1.0 - p)) * e_min)[~excl]
    order = np.argsort(-prods)
    share = np.cumsum((1.0 - p[~excl])[order]) / np.sum(1.0 - p)
    return float(prods[order][np.searchsorted(share, p3_star)])


def _oracle_sd(family, reps, seed, p3_star=0.8):
    """SD of p3* times an AIPW estimate of tau3 that knows every nuisance.

    Built from the generating process alone, on the very cohorts of
    ``_study(family, reps, seed)``: the true pooled sampling score, the
    true propensity, the true outcome means and the population
    threshold replace every fitted quantity. Its dispersion is what an
    estimator of the well-represented effect can reach on these
    cohorts; the package's EPD estimate is p3* tau3 plus a fixed shift.
    """
    config = DgpConfig(n_total=100_000, outcome_family=family)
    delta = _population_threshold(config, p3_star)
    e1 = config.treatment_prob
    scaled = []
    for r in range(reps):
        data, truth = generate_cohort(config, seed=[seed, r])
        x, s = data.x, data.s
        trial = data.trial_mask
        p = expit(x @ np.asarray(config.beta)) * ~truth.excluded
        h = p / (p + config.subsample_rate * (1.0 - p))
        k = ~truth.excluded & (h * min(e1, 1.0 - e1) >= delta)
        mu1, mu0 = _outcome_means(config, x, truth.e_flag)
        if family is BERN:
            mu1, mu0 = expit(mu1), expit(mu0)
        a = np.where(trial, data.a, 0.0)
        resid = np.where(trial, data.y - a * mu1 - (1.0 - a) * mu0, 0.0)
        base = np.where(trial & k, (1.0 - h) / np.where(trial, h, 1.0), 0.0)
        w1 = base * a / e1
        w0 = base * (1.0 - a) / (1.0 - e1)
        wt = k * (1.0 - s)
        tau3 = w1 @ resid / w1.sum() - w0 @ resid / w0.sum() + wt @ (mu1 - mu0) / wt.sum()
        scaled.append(p3_star * tau3)
    return float(np.std(scaled, ddof=1))


def _attains(sd, oracle_sd, lo=0.85, hi=1.15):
    """Variance ratio against the oracle, in test 9's attainment band."""
    ratio = (sd / oracle_sd) ** 2
    return (lo <= ratio <= hi), f"sd {sd:.4f} vs oracle {oracle_sd:.4f}: variance ratio {ratio:.4f} in [{lo}, {hi}]"


def test_1_replication_study_continuous():
    full = _cell(_study(GAUSS, 1000, seed=820_100), 0.8, "aipw", "epd")
    smoke = _cell(_study(GAUSS, 200, seed=820_200), 0.8, "aipw", "epd")
    clauses = {
        "bias": _band(abs(full.bias), 0.0, 0.04),
        "sd": _attains(full.sd, _oracle_sd(GAUSS, 1000, seed=820_100)),
        "coverage": _band(full.coverage, 0.91, 0.96),
        "smoke bias": _band(abs(smoke.bias), 0.0, 0.06),
        "smoke sd": _attains(smoke.sd, _oracle_sd(GAUSS, 200, seed=820_200)),
        "smoke coverage": _band(smoke.coverage, 0.8975, 0.9725),
    }
    _report(1, "continuous replication study, AIPW+EPD at n=100k, p3*=0.8", clauses)


def test_2_mse_ordering_aipw_below_ipw():
    report = _study(
        GAUSS, 220, seed=820_300,
        methods=("ipw", "aipw"), assumptions=("gpd", "epd"), p3=(0.8, 0.9),
    )
    clauses = {}
    for p3 in (0.8, 0.9):
        for assumption in ("gpd", "epd"):
            a = _cell(report, p3, "aipw", assumption).mse
            i = _cell(report, p3, "ipw", assumption).mse
            clauses[f"p3*={p3} {assumption}"] = (a < i, f"aipw {a:.3f} < ipw {i:.3f}")
    _report(2, "AIPW MSE below IPW MSE in every matched cell", clauses)


def test_3_replication_study_binary():
    full = _cell(_study(BERN, 1000, seed=820_400), 0.8, "aipw", "epd")
    clauses = {
        "bias": _band(abs(full.bias), 0.0, 0.01),
        "sd": _attains(full.sd, _oracle_sd(BERN, 1000, seed=820_400)),
        "coverage": _band(full.coverage, 0.91, 0.97),
    }
    _report(3, "binary replication study, AIPW+EPD at n=100k, p3*=0.8", clauses)


def test_4_intercept_calibration():
    b0 = calibrate_intercept(DgpConfig(), 0.01, mc_draws=4_000_000)
    clauses = {"intercept": _band(b0, -7.523 - 0.02, -7.523 + 0.02)}
    _report(4, "participation intercept calibration to a 1% rate", clauses)


def test_5_threshold_contract_against_quantile_oracle():
    rng = np.random.default_rng(820_500)
    worst_mean = 0.0
    worst_quantile = 0.0
    for _ in range(50):
        n = int(rng.integers(60, 400))
        prods = rng.random(n)
        m_keep = int(rng.integers(10, n - 10))
        p3 = m_keep / n
        hs = 2.0 * prods
        e = np.full(n, 0.5)
        delta = solve_threshold((hs, e, e), p3, 1e-8, np.zeros(n, dtype=bool))
        k = _smooth_k(hs * e, hs * e, delta, 1e-8)
        worst_mean = max(worst_mean, abs(float(np.mean(k)) - p3))
        oracle = np.sort(prods)[n - m_keep - 1]
        worst_quantile = max(worst_quantile, abs(delta - oracle))
    clauses = {
        "achieved share": (worst_mean <= 1e-6, f"worst |mean k - p3*| = {worst_mean:.2e}"),
        "quantile oracle": (worst_quantile <= 1e-4, f"worst |delta - order stat| = {worst_quantile:.2e}"),
    }
    _report(5, "threshold solver vs sort-quantile oracle, 50 random score sets", clauses)


def test_6_reduction_identities():
    data, truth = generate_cohort(DgpConfig(n_total=30_000), seed=[820_600, 0])
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    r1 = truth.excluded[data.target_mask]
    q = data.q
    zero = (
        GlmFit(np.zeros(q), GAUSS, True, 1),
        GlmFit(np.zeros(q), GAUSS, True, 1),
    )
    # trimming at the attainable mass keeps every non-excluded row
    p3_full = 1.0 - float(np.mean(r1))
    part_full = partition_population(data, sampling, propensity, r1, p3_full)
    plain = hajek_ipw(data, sampling, propensity, variance="none").estimate
    part08 = partition_population(data, sampling, propensity, r1, 0.8)
    t_ipw = trimmed_ipw(data, sampling, propensity, part08, variance="none").estimate
    t_aipw = trimmed_aipw(data, sampling, propensity, zero, part08, variance="none").estimate

    no_rule_part = partition_population(data, sampling, propensity, None, 1.0)
    trimmed_full = trimmed_ipw(data, sampling, propensity, no_rule_part, variance="none").estimate
    aug_zero = augmented_ipw(data, sampling, propensity, zero, variance="none").estimate
    chain = trimmed_aipw(data, sampling, propensity, zero, no_rule_part, variance="none").estimate

    rep = trimmed_aipw(data, sampling, propensity, fit_outcome_models(data, GAUSS), part08)
    inp = SensitivityInput(rep.estimate, (rep.ci_low, rep.ci_high), *part08.p_hat)
    gpd_unit = gpd_estimate(inp, 1.0, 1.0).estimate

    clauses = {
        "p3*=1 trimmed = untrimmed": (
            abs(trimmed_full - plain) <= 1e-9, f"diff {abs(trimmed_full - plain):.2e}"),
        "zero models: aipw = ipw (untrimmed)": (
            aug_zero == plain, f"diff {abs(aug_zero - plain):.2e}"),
        "zero models: aipw = ipw (trimmed)": (
            t_aipw == t_ipw, f"diff {abs(t_aipw - t_ipw):.2e}"),
        "chain tau3aw = tau_w": (
            abs(chain - plain) <= 1e-9, f"diff {abs(chain - plain):.2e}"),
        "gpd at k=1 returns tau3": (
            gpd_unit == rep.estimate, f"diff {abs(gpd_unit - rep.estimate):.2e}"),
    }
    _report(6, "reduction identities", clauses)


def _pipeline_estimate(ds, mask):
    sf = fit_sampling_score(ds)
    pf = fit_propensity_score(ds)
    of = fit_outcome_models(ds, GAUSS)
    part = partition_population(ds, sf, pf, mask, 0.8)
    return trimmed_aipw(ds, sf, pf, of, part, variance="none").estimate


def test_7_sandwich_agrees_with_bootstrap_and_covers():
    ratios = {}
    ratio_checks = {}
    for ds_seed in range(5):
        data, truth = generate_cohort(DgpConfig(n_total=50_000), seed=[820_700, ds_seed])
        sf = fit_sampling_score(data)
        pf = fit_propensity_score(data)
        of = fit_outcome_models(data, GAUSS)
        r1 = truth.excluded[data.target_mask]
        part = partition_population(data, sf, pf, r1, 0.8)
        sand = trimmed_aipw(data, sf, pf, of, part).se
        var_b, _, _ = bootstrap_ci(
            _pipeline_estimate, data, 500, seed=820_710 + ds_seed, r1_mask=r1,
        )
        ratio = sand / float(np.sqrt(var_b))
        ratios[ds_seed] = ratio
        ratio_checks[f"dataset {ds_seed}"] = _band(ratio, 0.75, 1.25)

    coverage_report = _study(GAUSS, 500, seed=820_720, n_total=50_000)
    cov = _cell(coverage_report, 0.8, "aipw", "epd").coverage
    clauses = dict(ratio_checks)
    clauses["sandwich CI coverage"] = _band(cov, 0.91, 0.97)
    _report(7, "sandwich SE vs 500-replicate bootstrap (n1~500, n2~5000)", clauses)


def _subset_fit(x, y, cols, family):
    sub = fit_glm(x[:, cols], y, family)
    coef = np.zeros(x.shape[1])
    coef[list(cols)] = sub.coefficients
    return GlmFit(coef, family, sub.converged, sub.iterations)


def _misspecified_bias(which, reps, seed):
    errors = []
    for r in range(reps):
        data, truth = generate_cohort(DgpConfig(), seed=[seed, r])
        x, s = data.x, data.s
        trial = data.trial_mask
        if which == "sampling_wrong":
            sampling = _subset_fit(x, s, (0, 2, 3, 4), BERN)   # omits the strong driver
        else:
            sampling = fit_sampling_score(data)
        propensity = fit_propensity_score(data)
        if which == "outcome_wrong":
            i1 = trial & (data.a == 1)
            i0 = trial & (data.a == 0)
            outcome = (
                _subset_fit(x[i1], data.y[i1], (0, 3, 4), GAUSS),
                _subset_fit(x[i0], data.y[i0], (0, 3, 4), GAUSS),
            )
        else:
            outcome = fit_outcome_models(data, GAUSS)
        r1 = truth.excluded[data.target_mask]
        part = partition_population(data, sampling, propensity, r1, 0.8)
        est = trimmed_aipw(data, sampling, propensity, outcome, part, variance="none").estimate
        realized_truth = float(np.mean(truth.cate[data.target_mask][part.labels == 3]))
        errors.append(est - realized_truth)
    errors = np.asarray(errors)
    return float(np.mean(errors)), float(np.std(errors, ddof=1))


def test_8_double_robustness():
    clauses = {}
    for which, seed in (("outcome_wrong", 820_800), ("sampling_wrong", 820_900)):
        bias, sd = _misspecified_bias(which, 200, seed)
        limit = 3.0 * sd / np.sqrt(200)
        clauses[which] = (abs(bias) <= limit, f"|{bias:+.4f}| <= {limit:.4f}")
    _report(8, "double robustness under single-model misspecification", clauses)


def test_9_efficiency_bound():
    hand = DgpConfig(
        beta=(0.0,) * 5,
        theta0=(0.0, 1.0, 1.0, 1.0, 1.0),
        theta1=(1.0, 1.0, 1.0, 1.0, 1.0),
        subsample_rate=1.0,
        exclusions=False,
        e_prob=0.0,
    )
    bound_hand = efficiency_bound_mc(hand, mc_draws=2_000_000)

    slopes = (-0.2, 0.1, 0.1, 0.1)
    b0 = calibrate_intercept(
        DgpConfig(beta=(0.0, *slopes), exclusions=False, e_prob=0.0), 0.01, mc_draws=2_000_000
    )
    weak = DgpConfig(
        n_total=200_000,
        beta=(b0, *slopes),
        exclusions=False,
        e_prob=0.0,
        effect_shift=0.0,
    )
    bound_weak = efficiency_bound_mc(weak, mc_draws=2_000_000)
    tau_weak = true_tau_oracle(weak, mc_draws=2_000_000)

    estimates = []
    sizes = []
    for r in range(400):
        data, _ = generate_cohort(weak, seed=[820_950, r])
        sf = fit_sampling_score(data)
        pf = fit_propensity_score(data)
        of = fit_outcome_models(data, GAUSS)
        estimates.append(augmented_ipw(data, sf, pf, of, variance="none").estimate)
        sizes.append(data.n)
    estimates = np.asarray(estimates)
    n_var = float(np.mean(sizes)) * float(np.var(estimates, ddof=1))
    ratio = n_var / bound_weak
    clauses = {
        "hand value": _band(bound_hand, 8.0 - 0.05, 8.0 + 0.05),
        "estimator attains bound": _band(ratio, 0.85, 1.15),
        "estimator unbiased": _band(
            abs(float(np.mean(estimates)) - tau_weak), 0.0,
            3.0 * float(np.std(estimates, ddof=1)) / np.sqrt(400.0)),
    }
    _report(9, "efficiency bound oracle and weak-selection attainment", clauses)


def test_10_sensitivity_arithmetic():
    inp = SensitivityInput(
        tau3=0.249, tau3_ci=(0.249 - 1.96 * 0.0326, 0.249 + 1.96 * 0.0326),
        p1=0.02, p2=0.08, p3_star=0.90,
        zeta1=0.387, zeta2=0.225,
    )
    epd = epd_estimate(inp, 1.0, 1.0).estimate
    gpd = gpd_estimate(inp, -4.0, -4.0).estimate
    clauses = {
        "epd at k=1": _band(epd, 0.2498 - 1e-4, 0.2498 + 1e-4),
        "gpd at k=-4": _band(gpd, 0.1245 - 1e-4, 0.1245 + 1e-4),
    }
    _report(10, "sensitivity arithmetic on application-scale inputs", clauses)
