"""Superpopulation data generators and the replication study harness.

The generating process draws four standard-normal covariates plus a
rare binary eligibility flag; rows matching the hard exclusion rule
never enter the trial, remaining rows participate with a logistic
probability whose intercept ``calibrate_intercept`` fits to a target
participation rate from the config's own slopes and covariate law, and a
fixed share of nonparticipants is subsampled into the observed target
sample. Outcomes are linear-Gaussian or Bernoulli-logistic in the
covariates with an extra effect shift on excluded rows.

The study harness replays the full fit / partition / estimate /
sensitivity pipeline over many replications, scores bias, MSE, SD and
coverage against a Monte Carlo truth, and is deterministic for a given
master seed no matter how many workers execute it. The truth and the
efficiency bound draw covariates in chunks of at most 1M rows, the nominal
trial size in one chunk; each chunk is evaluated ``MC_BLOCK`` rows at a
time, so the temporaries stay in cache. Each row's arithmetic and each sum
are those of the whole chunk, so the results are bit-identical to
evaluating the chunk at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset
from .errors import ConfigError, ExtvalError, NumericalError
from .estimators import trimmed_aipw, trimmed_ipw
from .glm import GlmFamily, expit, fit_outcome_models, fit_propensity_score, fit_sampling_score
from .parallel import ordered_map
from .partition import partition_population
from .sensitivity import SensitivityInput, epd_estimate, gpd_estimate


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the superpopulation generating process."""

    n_total: int = 100_000
    beta: tuple[float, ...] = (-7.523499, -2.0, 1.0, 1.0, 1.0)
    theta0: tuple[float, ...] = (1.0, 2.0, 2.0, 1.0, 1.0)
    theta1: tuple[float, ...] = (0.0, 1.0, 1.0, 1.0, 1.0)
    e_prob: float = 0.01
    exclusions: bool = True
    x4_cut: float = 3.0
    subsample_rate: float = 0.10
    outcome_family: GlmFamily = GlmFamily.GAUSSIAN_IDENTITY
    treatment_prob: float = 0.5
    effect_shift: float = -0.5

    def __post_init__(self):
        q = len(self.beta)
        if len(self.theta0) != q or len(self.theta1) != q:
            raise ConfigError("beta, theta0, theta1 must share one dimension")
        if not self.n_total >= 1:
            raise ConfigError(f"n_total must be at least 1, got {self.n_total!r}")
        for name in ("e_prob", "subsample_rate", "treatment_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.treatment_prob < 1.0:
            raise ConfigError("treatment_prob must lie strictly in (0, 1)")

    @property
    def q(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class CohortTruth:
    """Hidden per-row truth retained for scoring: the conditional effect,
    the exclusion flag, and the rare eligibility indicator."""

    cate: np.ndarray
    excluded: np.ndarray
    e_flag: np.ndarray


def _covariates(config: DgpConfig, rng: np.random.Generator, m: int):
    x = np.ones((m, config.q))
    x[:, 1:] = rng.standard_normal((m, config.q - 1))
    e = rng.random(m) < config.e_prob
    if config.exclusions:
        excl = e | (x[:, config.q - 1] >= config.x4_cut)
    else:
        excl = np.zeros(m, dtype=bool)
    return x, e, excl


def _outcome_means(config: DgpConfig, x: np.ndarray, e: np.ndarray):
    mu1 = x @ np.asarray(config.theta1) + config.effect_shift * e
    mu0 = x @ np.asarray(config.theta0)
    return mu1, mu0


def _cate(config: DgpConfig, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    mu1, mu0 = _outcome_means(config, x, e)
    if config.outcome_family is GlmFamily.BERNOULLI_LOGIT:
        return expit(mu1) - expit(mu0)
    return mu1 - mu0


def generate_cohort(config: DgpConfig, seed) -> tuple[Dataset, CohortTruth]:
    """Draw one observed cohort (trial + subsampled target) with truth."""
    rng = np.random.default_rng(seed)
    m = config.n_total
    x, e, excl = _covariates(config, rng, m)
    p_s = expit(x @ np.asarray(config.beta)) * ~excl
    s_full = rng.random(m) < p_s
    observed = s_full | (~s_full & (rng.random(m) < config.subsample_rate))

    idx = np.flatnonzero(observed)
    s = s_full[idx].astype(float)
    # row-major, as drawn: the outcome means and the truth keep the bits
    # they had before the design went column-major (a column-major copy
    # would move their last bits); the Dataset copies the rows into its
    # column-major design
    xo = x[idx]
    n = idx.size
    a = np.full(n, np.nan)
    y = np.full(n, np.nan)
    trial = s == 1
    ntr = int(trial.sum())
    assignments = (rng.random(ntr) < config.treatment_prob).astype(float)
    a[trial] = assignments
    mu1, mu0 = _outcome_means(config, xo[trial], e[idx][trial])
    chosen = np.where(assignments == 1, mu1, mu0)
    if config.outcome_family is GlmFamily.BERNOULLI_LOGIT:
        y[trial] = (rng.random(ntr) < expit(chosen)).astype(float)
    else:
        y[trial] = chosen + rng.standard_normal(ntr)
    truth = CohortTruth(
        cate=_cate(config, xo, e[idx]),
        excluded=excl[idx],
        e_flag=e[idx],
    )
    return Dataset(s=s, a=a, y=y, x=xo), truth


def true_tau_oracle(config: DgpConfig, mc_draws: int = 4_000_000, seed: int = 1_234_567) -> float:
    """Monte Carlo truth: mean conditional effect over nonparticipants.

    Draws covariates and averages the conditional effect with weight
    equal to each draw's nonparticipation probability, which targets
    the same expectation as averaging realized potential-outcome
    differences among nonparticipant draws with less noise. Rows are
    evaluated ``MC_BLOCK`` at a time (``_blocks``) into one array per
    1M-draw chunk, so one chunk's draws, about 56 MB, are held at once.
    """
    if mc_draws < 1:
        raise ConfigError("mc_draws must be positive")
    rng = np.random.default_rng(seed)
    total = 0.0
    weight = 0.0
    for chunk in _chunks(mc_draws, 1_000_000):
        w, cw = np.empty(chunk), np.empty(chunk)
        for rows, x, e, excl in _blocks(config, rng, chunk):
            w[rows] = 1.0 - expit(x @ np.asarray(config.beta)) * ~excl
            cw[rows] = _cate(config, x, e) * w[rows]
        total += float(np.sum(cw))
        weight += float(np.sum(w))
    return total / weight


def _chunks(total: int, size: int):
    while total > 0:
        yield min(total, size)
        total -= size


# rows of a Monte Carlo block; a multiple of 16, so that BLAS groups the rows
# of a block's gemv as it would the whole chunk's (sweep in CHANGES.md)
MC_BLOCK = 8192


def _blocks(config: DgpConfig, rng: np.random.Generator, m: int):
    """``m`` draws of the covariate law, taken from ``rng`` as
    ``_covariates`` takes them, as blocks of ``MC_BLOCK`` rows: (row slice,
    x, e, excl), with x a view of one buffer that the next block reuses."""
    z = rng.standard_normal((m, config.q - 1))
    u = rng.random(m)
    buffer = np.ones((MC_BLOCK, config.q))
    for start in range(0, m, MC_BLOCK):
        rows = slice(start, min(start + MC_BLOCK, m))
        x = buffer[: rows.stop - start]
        x[:, 1:] = z[rows]
        e = u[rows] < config.e_prob
        excl = e | (x[:, -1] >= config.x4_cut) if config.exclusions else np.zeros(e.size, dtype=bool)
        yield rows, x, e, excl


def calibrate_intercept(
    config: DgpConfig, target_prob: float, mc_draws: int = 2_000_000, seed: int = 24_601
) -> float:
    """Solve for the participation-model intercept hitting a target rate.

    The slopes are ``config.beta[1:]``. Bisection runs on a fixed sample of
    ``mc_draws`` draws of the config's covariates, so the objective is
    monotone and deterministic given the seed, and stops within 1e-6 of
    the target rate.
    """
    if not 0.0 < target_prob < 1.0:
        raise ConfigError("target_prob must lie strictly in (0, 1)")
    if mc_draws < 1:
        raise ConfigError("mc_draws must be positive")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    bases = []
    masks = []
    for chunk in _chunks(mc_draws, 1_000_000):
        x, _, excl = _covariates(config, rng, chunk)
        bases.append(x[:, 1:] @ np.asarray(config.beta[1:]))
        masks.append(excl)
    base = np.concatenate(bases)
    keep = ~np.concatenate(masks)

    def rate(b0: float) -> float:
        return float(np.mean(expit(b0 + base) * keep))

    lo, hi = -60.0, 60.0
    if not rate(lo) - target_prob < 0 < rate(hi) - target_prob:
        raise NumericalError("target participation rate is not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = rate(mid) - target_prob
        if abs(f) <= 1e-6 or hi - lo < 1e-12:
            return mid
        if f < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# replication study
# ---------------------------------------------------------------------------

# share of a study's replications that may fail before the study does
MAX_FAILURE_SHARE = 0.01
# covariate draws behind the trial and target sizes that the study reports
NOMINAL_DRAWS = 400_000


@dataclass(frozen=True)
class StudyConfig:
    dgp: DgpConfig
    replications: int = 1000
    p3_stars: tuple[float, ...] = (0.8, 0.9)
    methods: tuple[str, ...] = ("ipw", "aipw")
    assumptions: tuple[str, ...] = ("gpd", "epd")
    master_seed: int = 0
    oracle_draws: int = 4_000_000

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("study needs at least one replication")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.master_seed!r}")
        if self.oracle_draws < 1:
            raise ConfigError(f"oracle_draws must be at least 1, got {self.oracle_draws!r}")
        for p in self.p3_stars:
            if not 0.0 < p <= 1.0:
                raise ConfigError(f"p3_star must lie in (0, 1], got {p!r}")
        for m in self.methods:
            if m not in ("ipw", "aipw"):
                raise ConfigError(f"unknown method {m!r}")
        for a in self.assumptions:
            if a not in ("gpd", "epd"):
                raise ConfigError(f"unknown assumption {a!r}")

    @property
    def cells(self) -> tuple[tuple[float, str, str], ...]:
        return tuple(
            (p, m, a)
            for p in self.p3_stars
            for m in self.methods
            for a in self.assumptions
        )


@dataclass(frozen=True)
class StudyCell:
    trial_size: int
    target_size: int
    proportion: float
    method: str
    assumption: str
    bias: float
    mse: float
    sd: float
    coverage: float


@dataclass(frozen=True)
class StudyReport:
    """The study's cells, scored against ``true_tau``; a cell's SD is NaN
    when fewer than two replications succeeded."""

    cells: tuple[StudyCell, ...]
    true_tau: float
    replications: int
    failures: int

    CSV_HEADER = (
        "trial_size", "target_size", "proportion", "method",
        "assumption", "bias", "mse", "sd", "coverage",
    )

    def to_csv(self) -> str:
        lines = [",".join(self.CSV_HEADER)]
        for c in self.cells:
            lines.append(
                f"{c.trial_size},{c.target_size},{c.proportion},{c.method.upper()},"
                f"{c.assumption.upper()},{c.bias:.6f},{c.mse:.6f},{c.sd:.6f},{c.coverage:.6f}"
            )
        return "\n".join(lines) + "\n"


def _group_truths(cate_target: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    out = []
    for g in (1, 2, 3):
        mask = labels == g
        out.append(float(np.mean(cate_target[mask])) if mask.any() else 0.0)
    return tuple(out)


def _one_replication(config: StudyConfig, rep: int) -> dict:
    """Run every requested cell on one generated cohort.

    Returns {(p3, method, assumption): (estimate, ci_low, ci_high)}.
    """
    data, truth = generate_cohort(config.dgp, seed=[config.master_seed, rep])
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = (
        fit_outcome_models(data, config.dgp.outcome_family)
        if "aipw" in config.methods
        else None
    )
    cate_t = truth.cate[data.target_mask]
    r1 = truth.excluded[data.target_mask]
    out: dict = {}
    for p3s in config.p3_stars:
        part = partition_population(data, sampling, propensity, r1, p3s)
        t1, t2, t3 = _group_truths(cate_t, part.labels)
        for method in config.methods:
            if method == "ipw":
                rep_est = trimmed_ipw(data, sampling, propensity, part)
            else:
                rep_est = trimmed_aipw(data, sampling, propensity, outcome, part)
            inp = SensitivityInput(
                tau3=rep_est.estimate,
                tau3_ci=(rep_est.ci_low, rep_est.ci_high),
                p1=part.p_hat[0],
                p2=part.p_hat[1],
                p3_star=part.p_hat[2],
                zeta1=t1,
                zeta2=t2,
            )
            for assumption in config.assumptions:
                if assumption == "gpd":
                    # oracle proportional differences; ratio undefined only
                    # in zero-effect configurations, where 1 is the value
                    k1 = t1 / t3 if t3 != 0.0 else 1.0
                    k2 = t2 / t3 if t3 != 0.0 else 1.0
                    est = gpd_estimate(inp, k1=k1, k2=k2)
                else:
                    est = epd_estimate(inp, k1=1.0, k2=1.0)
                out[(p3s, method, assumption)] = (est.estimate, est.ci_low, est.ci_high)
    return out


def _replication(config: StudyConfig, rep: int):
    """One replication's results, or the numerical failure that stopped it."""
    try:
        return _one_replication(config, rep)
    except (ExtvalError, np.linalg.LinAlgError) as exc:    # a per-replication failure
        return exc


def _study_task(config: StudyConfig, task: int):
    """Task ``task`` of a study: replication ``task``, then the nominal
    trial size, then the truth."""
    if task < config.replications:
        return _replication(config, task)
    if task == config.replications:
        return _nominal_trial_size(config.dgp)
    return true_tau_oracle(config.dgp, config.oracle_draws)


def run_study(config: StudyConfig, n_jobs: int | None = None, true_tau: float | None = None) -> StudyReport:
    """Replicate the pipeline and score it against the Monte Carlo truth.

    Deterministic for a fixed master seed: replication r always draws
    from default_rng([master_seed, r]) and aggregation is ordered by r,
    so the worker count cannot change the report. The replications, then
    the nominal trial size and the truth ``true_tau_oracle(config.dgp,
    config.oracle_draws)``, are the tasks of one ``parallel.ordered_map``,
    so the two Monte Carlo tasks run in the last process's share beside
    the replications; ``true_tau`` is the truth when the caller already
    has it. The tasks run on up to ``n_jobs`` processes, this one and
    forked workers; without a safe fork (Windows, macOS) the workers are
    spawned. ``n_jobs`` None is one per CPU in this process's affinity
    mask, and one without a safe fork.
    """
    tasks = range(config.replications + 1 + (true_tau is None))
    results = ordered_map(partial(_study_task, config), tasks, n_jobs)
    if true_tau is None:
        true_tau = results.pop()
    nominal_n1 = results.pop()

    failures = sum(1 for r in results if isinstance(r, Exception))
    if failures > MAX_FAILURE_SHARE * config.replications:
        raise NumericalError(
            f"study failed: {failures}/{config.replications} replications errored "
            f"(first: {next(r for r in results if isinstance(r, Exception))!r})"
        )
    good = [r for r in results if not isinstance(r, Exception)]

    nominal_n2 = int(round((config.dgp.n_total - nominal_n1) * config.dgp.subsample_rate))
    cells = []
    for p3s, method, assumption in config.cells:
        est = np.array([g[(p3s, method, assumption)][0] for g in good])
        lo = np.array([g[(p3s, method, assumption)][1] for g in good])
        hi = np.array([g[(p3s, method, assumption)][2] for g in good])
        err = est - true_tau
        cells.append(StudyCell(
            trial_size=nominal_n1,
            target_size=nominal_n2,
            proportion=p3s,
            method=method,
            assumption=assumption,
            bias=float(np.mean(err)),
            mse=float(np.mean(err ** 2)),
            sd=float(np.std(est, ddof=1)) if est.size > 1 else float("nan"),
            coverage=float(np.mean((lo <= true_tau) & (true_tau <= hi))),
        ))
    return StudyReport(
        cells=tuple(cells),
        true_tau=true_tau,
        replications=config.replications,
        failures=failures,
    )


def _nominal_trial_size(config: DgpConfig) -> int:
    rng = np.random.default_rng(777_001)
    p = np.empty(NOMINAL_DRAWS)
    for rows, x, _, excl in _blocks(config, rng, NOMINAL_DRAWS):
        p[rows] = expit(x @ np.asarray(config.beta)) * ~excl
    return int(round(config.n_total * float(np.mean(p))))


# ---------------------------------------------------------------------------
# efficiency bound
# ---------------------------------------------------------------------------

def efficiency_bound_mc(config: DgpConfig, mc_draws: int = 2_000_000, seed: int = 9_090) -> float:
    """Monte Carlo semiparametric efficiency bound for the observed-data
    law induced by the generating process.

    Valid only when positivity holds (no hard exclusions); emits a
    divergence warning when any sampled score product falls below 1e-6,
    since the bound blows up as score products approach zero. Scaled for
    the pooled observed sample: Var(estimator) ~ bound / (n1 + n2).
    Rows are evaluated ``MC_BLOCK`` at a time; of each 1M-draw chunk only
    h, the selection probability, the effect and the variance term are
    kept for the second pass, 32 MB per chunk.
    """
    if config.exclusions:
        raise ConfigError("efficiency bound requires a configuration without exclusions")
    rng = np.random.default_rng(seed)
    e1 = config.treatment_prob
    e0 = 1.0 - e1
    num = 0.0
    den = 0.0
    tau_num = 0.0
    tau_den = 0.0
    draws = []
    for chunk in _chunks(mc_draws, 1_000_000):
        h, sel, cate, var, w, cw = (np.empty(chunk) for _ in range(6))
        for rows, x, e, _ in _blocks(config, rng, chunk):
            p = expit(x @ np.asarray(config.beta))
            w[rows] = 1.0 - p
            sel[rows] = p + config.subsample_rate * w[rows]   # P(selected | X)
            h[rows] = p / sel[rows]
            cate[rows] = _cate(config, x, e)
            if config.outcome_family is GlmFamily.BERNOULLI_LOGIT:
                mu1, mu0 = _outcome_means(config, x, e)
                s1 = expit(mu1) * (1.0 - expit(mu1))
                s0 = expit(mu0) * (1.0 - expit(mu0))
            else:
                s1 = s0 = 1.0
            var[rows] = ((1.0 - h[rows]) ** 2 / h[rows]) * (s1 / e1 + s0 / e0)
            cw[rows] = cate[rows] * w[rows]
        draws.append((h, sel, cate, var))
        tau_num += float(np.sum(cw))
        tau_den += float(np.sum(w))
    tau = tau_num / tau_den
    min_prod = np.inf
    for h, sel, cate, var in draws:
        min_prod = min(min_prod, float(np.min(h)) * min(e1, e0))
        integrand = var + (1.0 - h) * (cate - tau) ** 2
        num += float(np.sum(integrand * sel))
        den += float(np.sum(sel))
    if min_prod < 1e-6:
        warnings.warn(
            "score products below 1e-6 sampled; the efficiency bound diverges "
            "as positivity degrades",
            RuntimeWarning,
        )
    q0 = 1.0 - float(np.sum([np.sum(h * sel) for h, sel, *_ in draws])) / den
    return (num / den) / q0 ** 2
