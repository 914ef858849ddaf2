"""Weighting and augmented-weighting estimators with stacked-equation
variance.

All point estimators are self-normalized (Hajek) weighted means, so
they are invariant to rescaling the weights. Variances come from
M-estimation: every nuisance fit contributes its score rows, the
threshold contributes its defining equation, and the targets of
inference enter as weighted-mean residual rows. The asymptotic variance
of the contrast eta'Xi is eta' A^-1 B A^-T eta / n with A the Jacobian
of the mean estimating function and B its second moment.

One core computes the per-row quantities (sampling score, propensity,
transport weights, threshold membership, outcome means and the AIPW
residual) at a stacked parameter vector. The four public estimators are
thin wrappers over one estimate function that reads that core at the
component fits; its weighted means are the plug-in solution of the
stacked system, whose estimating functions read the same core at
perturbed parameters. The weighting estimators are the augmented ones
with outcome models fixed at zero, so every system has one layout.

A is estimated by central finite differences. Differentiating the
membership weight at its own smoothing scale (1e-8 by default) would
count the one or two target rows inside the difference window rather
than estimate the density of score products at the threshold, and so
make the variance a function of the step size. For A alone, the
threshold membership is therefore smoothed at a data-driven bandwidth:
the Hall-Sheather bandwidth in quantile space, at the level of the
threshold among the non-excluded target min-products, converted to
product units as half the gap between the order statistics at that
level plus and minus the bandwidth (as quantile-regression sandwiches
estimate the sparsity). The threshold's difference step sits well
inside that bandwidth. B, the plug-in solution and every point
estimate keep the membership's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit, ndtri

from .data import Dataset
from .errors import (
    ConfigError,
    ExtvalError,
    NegativeVarianceError,
    NotConvergedError,
    NumericalError,
    SingularSystemError,
    StationarityError,
    ZeroWeightError,
)
from .glm import GlmFamily, GlmFit, predict_mean
from .partition import PartitionResult, _smooth_k

Z95 = 1.96
FD_REL_STEP = 1e-5
FD_ABS_FLOOR = 1e-7
THRESHOLD_STEP_SHARE = 1e-3     # threshold step as a share of the Jacobian bandwidth
HALL_SHEATHER_ALPHA = 0.05
STATIONARITY_TOL = 1e-5


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with variance, CI and provenance tags."""

    estimate: float
    variance: float
    ci_low: float
    ci_high: float
    method: str                 # "ipw" | "aipw"
    trimmed: bool
    variance_method: str        # "sandwich" | "bootstrap" | "none"
    n1: int
    n2: int
    p_hat: tuple[float, float, float] | None = None
    delta_star: float | None = None

    @property
    def se(self) -> float:
        return float(np.sqrt(self.variance)) if np.isfinite(self.variance) else float("nan")

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "se": self.se,
            "ci": [self.ci_low, self.ci_high],
            "method": self.method,
            "trimmed": self.trimmed,
            "variance_method": self.variance_method,
            "n1": self.n1,
            "n2": self.n2,
            "p_hat": list(self.p_hat) if self.p_hat is not None else None,
            "delta_star": self.delta_star,
        }


@dataclass(frozen=True)
class StackedSystem:
    """Estimating-function system evaluated around a plug-in solution.

    ``psi`` maps a parameter vector to the (n, dim) matrix of per-row
    estimating-function values; ``eta`` is the contrast whose variance
    is wanted. A system with an estimated threshold (label
    ``"threshold"``) also carries ``bandwidth``, the smoothing scale of
    the threshold membership at which the Jacobian is taken, and
    ``jacobian_psi``, the same estimating functions smoothed at that
    bandwidth; without them the Jacobian is taken from ``psi``.
    """

    xi: np.ndarray
    eta: np.ndarray
    psi: Callable[[np.ndarray], np.ndarray]
    labels: tuple[str, ...] = field(default=())
    jacobian_psi: Callable[[np.ndarray], np.ndarray] | None = None
    bandwidth: float | None = None

    @property
    def dim(self) -> int:
        return self.xi.shape[0]


def _hajek(values: np.ndarray, weights: np.ndarray, what: str) -> float:
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ZeroWeightError(f"total weight for {what} is not positive")
    return float(np.sum(weights * values) / total)


def _outcome_link(outcome_fits: tuple[GlmFit, GlmFit]):
    fam = outcome_fits[0].family
    if outcome_fits[1].family is not fam:
        raise ConfigError("outcome fits must share a family")
    if fam is GlmFamily.BERNOULLI_LOGIT:
        return lambda eta: expit(eta)
    return lambda eta: eta


def _check_fits(*fits: GlmFit):
    for fit in fits:
        if not fit.converged:
            raise NotConvergedError("estimator requires converged component fits")


# ---------------------------------------------------------------------------
# the estimator core
# ---------------------------------------------------------------------------

class _Rows(NamedTuple):
    """Per-row quantities of the pipeline at one parameter vector."""

    hs: np.ndarray
    e1: np.ndarray
    w1: np.ndarray
    w0: np.ndarray
    k: np.ndarray | float           # 1.0 when untrimmed
    m1: np.ndarray
    m0: np.ndarray
    means: list                     # (weights, values) of each weighted-mean row


class _Pipeline:
    """One estimator's data, component fits and threshold, laid out as the
    parameter vector of its stacked system.

    Blocks, in order: sampling coefficients, propensity coefficients
    (omitted for a fixed propensity), outcome coefficients (omitted
    without outcome fits, which fixes the outcome models at zero), the
    threshold (trimmed with a positive threshold only), then the weighted
    means v1, v2, v3 whose contrast v1 - v2 + v3 is the treatment effect.
    ``nuisance`` is the vector up to the weighted means, at the fits.
    """

    tail = ("v1", "v2", "v3")

    def __init__(self, data, sampling_fit, propensity_fit, outcome_fits, partition):
        data.require_both_samples()
        _check_fits(sampling_fit, propensity_fit, *(outcome_fits or ()))
        self.data, self.partition = data, partition
        self.a = np.where(data.trial_mask, data.a, 0.0)
        self.y = np.where(data.trial_mask, data.y, 0.0)
        self.treated = data.trial_mask & (self.a == 1)
        self.control = data.trial_mask & (self.a == 0)
        # exclusions force k to 0 on target rows only; trial rows are
        # study-eligible by construction
        self.r1 = np.zeros(data.n, dtype=bool)
        if partition is not None:
            self.r1[np.flatnonzero(data.target_mask)[partition.r1_mask]] = True
        # a boundary threshold (p3* at the attainable mass) is pinned, not
        # estimated: its equation holds identically and carries no noise
        self.estimate_delta = partition is not None and partition.delta_star > 0.0
        self.fixed_e1 = predict_mean(propensity_fit, data.x) if propensity_fit.fixed else None
        self.link = _outcome_link(outcome_fits) if outcome_fits is not None else None
        # m1, m0 and the residual when the outcome models are fixed at zero
        self.fixed_m = None
        if outcome_fits is None:
            zero = np.zeros(data.n)
            self.fixed_m = (zero, zero, self.y)

        blocks = [("sampling", sampling_fit.coefficients)]
        if not propensity_fit.fixed:
            blocks.append(("propensity", propensity_fit.coefficients))
        if self.fixed_m is None:
            blocks += [
                ("outcome1", outcome_fits[0].coefficients),
                ("outcome0", outcome_fits[1].coefficients),
            ]
        if self.estimate_delta:
            blocks.append(("threshold", [partition.delta_star]))
        self.nuisance = np.concatenate([np.asarray(v, dtype=float) for _, v in blocks])
        self.slices: dict[str, slice] = {}
        self.labels: list[str] = []
        offset = 0
        widths = [(name, len(v)) for name, v in blocks] + [(t, 1) for t in self.tail]
        for name, width in widths:
            self.slices[name] = slice(offset, offset + width)
            self.labels += [name] if width == 1 else [f"{name}[{i}]" for i in range(width)]
            offset += width
        self.dim = offset

    def rows(self, xi: np.ndarray, scale: float | None = None) -> _Rows:
        """hs, e1, the transport weights, k, m1/m0 and the weighted-mean
        rows at ``xi``; ``scale`` smooths the threshold membership (the
        partition's epsilon by default, see threshold_bandwidth)."""
        x, s, a = self.data.x, self.data.s, self.a
        hs = expit(x @ xi[self.slices["sampling"]])
        e1 = self.fixed_e1
        if e1 is None:
            e1 = expit(x @ xi[self.slices["propensity"]])
        e0 = 1.0 - e1
        base = np.where(self.data.trial_mask, (1.0 - hs) / hs, 0.0)
        w1 = np.where(self.treated, base / e1, 0.0)
        w0 = np.where(self.control, base / e0, 0.0)
        k = 1.0
        if self.partition is not None:
            part = self.partition
            delta = xi[self.slices["threshold"]][0] if self.estimate_delta else part.delta_star
            k = _smooth_k(hs * e1, hs * e0, delta, scale or part.epsilon)
            k = np.where(self.r1, 0.0, k)
        if self.fixed_m is None:
            m1 = self.link(x @ xi[self.slices["outcome1"]])
            m0 = self.link(x @ xi[self.slices["outcome0"]])
            resid = s * (self.y - a * m1 - (1.0 - a) * m0)
        else:
            m1, m0, resid = self.fixed_m
        means = [(k * w1, resid), (k * w0, resid), (k * (1.0 - s), m1 - m0)]
        return _Rows(hs, e1, w1, w0, k, m1, m0, means)

    def weighted_means(self, fitted: _Rows) -> list[float]:
        """The weighted means at the component fits: the point estimate's
        terms and the plug-in solution of the stacked system."""
        hs, e1 = fitted.hs[self.data.trial_mask], fitted.e1[self.data.trial_mask]
        if np.any(hs <= 0.0) or np.any(e1 <= 0.0) or np.any(e1 >= 1.0):
            raise ZeroWeightError("sampling or propensity score is numerically 0/1 on a trial row")
        if not (np.all(np.isfinite(fitted.w1)) and np.all(np.isfinite(fitted.w0))):
            raise ZeroWeightError("non-finite transport weight")
        means = [_hajek(v, w, name) for (w, v), name in zip(fitted.means[:2], self.tail)]
        w, v = fitted.means[2]
        # untrimmed, the projection is the plain mean over the target rows
        if self.partition is None:
            means.append(float(np.mean(v[self.data.target_mask])))
        else:
            means.append(_hajek(v, w, "v3"))
        return means

    def psi(self, xi: np.ndarray, scale: float | None = None) -> np.ndarray:
        """The (n, dim) estimating-function rows at ``xi``."""
        x, s, a, y = self.data.x, self.data.s, self.a, self.y
        r = self.rows(xi, scale)
        out = np.empty((x.shape[0], self.dim))
        out[:, self.slices["sampling"]] = (s - r.hs)[:, None] * x
        if self.fixed_e1 is None:
            out[:, self.slices["propensity"]] = (s * (a - r.e1))[:, None] * x
        if self.fixed_m is None:
            out[:, self.slices["outcome1"]] = (s * a * (y - r.m1))[:, None] * x
            out[:, self.slices["outcome0"]] = (s * (1.0 - a) * (y - r.m0))[:, None] * x
        if self.estimate_delta:
            out[:, self.slices["threshold"]] = ((1.0 - s) * (r.k - self.partition.p3_star))[:, None]
        for name, (w, v) in zip(self.tail, r.means):
            out[:, self.slices[name]] = (w * (v - xi[self.slices[name]][0]))[:, None]
        return out


# ---------------------------------------------------------------------------
# point estimators
# ---------------------------------------------------------------------------

def hajek_ipw(
    data: Dataset,
    sampling_fit: GlmFit,
    propensity_fit: GlmFit,
    variance: str = "sandwich",
) -> EstimateReport:
    """Self-normalized weighting estimator of the target-population ATE."""
    return _estimate(data, sampling_fit, propensity_fit, None, None, variance)


def trimmed_ipw(
    data: Dataset,
    sampling_fit: GlmFit,
    propensity_fit: GlmFit,
    partition: PartitionResult,
    variance: str = "sandwich",
) -> EstimateReport:
    """Weighting estimator for the well-represented group."""
    return _estimate(data, sampling_fit, propensity_fit, None, partition, variance)


def augmented_ipw(
    data: Dataset,
    sampling_fit: GlmFit,
    propensity_fit: GlmFit,
    outcome_fits: tuple[GlmFit, GlmFit],
    variance: str = "sandwich",
) -> EstimateReport:
    """Doubly robust estimator: weighted residuals plus an outcome-model
    projection averaged over all target rows."""
    return _estimate(data, sampling_fit, propensity_fit, outcome_fits, None, variance)


def trimmed_aipw(
    data: Dataset,
    sampling_fit: GlmFit,
    propensity_fit: GlmFit,
    outcome_fits: tuple[GlmFit, GlmFit],
    partition: PartitionResult,
    variance: str = "sandwich",
) -> EstimateReport:
    """Augmented weighting estimator for the well-represented group."""
    return _estimate(data, sampling_fit, propensity_fit, outcome_fits, partition, variance)


def _estimate(
    data, sampling_fit, propensity_fit, outcome_fits, partition, variance,
) -> EstimateReport:
    """v1 - v2 + v3, with its sandwich variance unless ``variance`` is
    "none"; the weighting estimator ("ipw") when ``outcome_fits`` is None."""
    pipeline = _Pipeline(data, sampling_fit, propensity_fit, outcome_fits, partition)
    v1, v2, v3 = pipeline.weighted_means(pipeline.rows(pipeline.nuisance))
    est = v1 - v2 + v3
    var = lo = hi = float("nan")
    if variance == "sandwich":
        var = sandwich_variance(build_stacked_system(
            data, sampling_fit, propensity_fit, outcome_fits, partition
        ))
        half = Z95 * float(np.sqrt(var))
        lo, hi = est - half, est + half
    elif variance != "none":
        raise ConfigError(f"unknown variance method {variance!r} (use bootstrap_ci for bootstrap)")
    trimmed = partition is not None
    method = "ipw" if outcome_fits is None else "aipw"
    return EstimateReport(
        est, var, lo, hi, method, trimmed, variance, data.n1, data.n2,
        p_hat=partition.p_hat if trimmed else None,
        delta_star=partition.delta_star if trimmed else None,
    )


# ---------------------------------------------------------------------------
# stacked estimating equations
# ---------------------------------------------------------------------------

def build_stacked_system(
    data: Dataset,
    sampling_fit: GlmFit,
    propensity_fit: GlmFit,
    outcome_fits: tuple[GlmFit, GlmFit] | None = None,
    partition: PartitionResult | None = None,
) -> StackedSystem:
    """Stack the estimating functions of the full pipeline.

    Row blocks, in order: sampling-score rows, propensity-score rows
    (omitted for a fixed propensity), outcome-score rows, the threshold
    row (trimmed only), then the weighted-mean rows v1, v2, v3 whose
    contrast v1 - v2 + v3 is the treatment effect. Without
    ``outcome_fits`` the system is the weighting estimator's: the outcome
    models are fixed at zero, so it has no outcome rows and v3 is 0. The
    plug-in solution assembled
    from the component fits must zero the mean estimating function to
    1e-5 per coordinate; otherwise the components are inconsistent and
    StationarityError is raised.
    """
    pipeline = _Pipeline(data, sampling_fit, propensity_fit, outcome_fits, partition)
    fitted = pipeline.rows(pipeline.nuisance)
    xi_hat = np.concatenate([pipeline.nuisance, pipeline.weighted_means(fitted)])
    eta = np.zeros(pipeline.dim)
    eta[-3:] = (1.0, -1.0, 1.0)

    mean_psi = pipeline.psi(xi_hat).mean(axis=0)
    worst = float(np.max(np.abs(mean_psi)))
    if worst > STATIONARITY_TOL:
        raise StationarityError(
            f"plug-in estimates do not solve the stacked equations "
            f"(max |mean psi| = {worst:.2e})"
        )
    jacobian_psi = bandwidth = None
    if pipeline.estimate_delta:
        keep = data.target_mask & ~pipeline.r1
        hs, e1 = fitted.hs[keep], fitted.e1[keep]
        min_prods = hs * np.minimum(e1, 1.0 - e1)
        bandwidth = threshold_bandwidth(
            min_prods, partition.p3_star, partition.p_hat[0], partition.epsilon
        )
        jacobian_psi = partial(pipeline.psi, scale=bandwidth)
    return StackedSystem(
        xi=xi_hat, eta=eta, psi=pipeline.psi, labels=tuple(pipeline.labels),
        jacobian_psi=jacobian_psi, bandwidth=bandwidth,
    )


def threshold_bandwidth(
    min_prods: np.ndarray, p3_star: float, p1_hat: float, epsilon: float
) -> float:
    """Smoothing scale of the threshold membership for the Jacobian.

    ``min_prods`` are the min score products of the non-excluded target
    rows; the threshold sits at their level 1 - p3*/(1 - p1_hat). The
    Hall-Sheather bandwidth h at that level (Hall & Sheather 1988)
    becomes product units as half the gap between the order statistics
    at levels level - h and level + h. Never below ``epsilon``, so tied
    products fall back to the membership's own scale.
    """
    m = min_prods.size
    level = 1.0 - p3_star / (1.0 - p1_hat)
    z = ndtri(level)
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    h = (
        m ** (-1.0 / 3.0)
        * ndtri(1.0 - 0.5 * HALL_SHEATHER_ALPHA) ** (2.0 / 3.0)
        * (1.5 * density ** 2 / (2.0 * z * z + 1.0)) ** (1.0 / 3.0)
    )
    lo, hi = np.quantile(
        min_prods, np.clip([level - h, level + h], 0.0, 1.0), method="inverted_cdf"
    )
    return max(0.5 * float(hi - lo), epsilon)


def sandwich_variance(system: StackedSystem) -> float:
    """Variance of the system's contrast via A^-1 B A^-T / n.

    B is the empirical second moment of the rows of ``psi``. A is the
    central finite-difference Jacobian of the mean of ``jacobian_psi``
    (``psi`` when the system has no estimated threshold): relative step
    1e-5 per coordinate with absolute floor 1e-7, except the threshold,
    whose step is 1e-3 of the system's bandwidth. Because the threshold
    membership inside ``jacobian_psi`` is smoothed at that bandwidth
    rather than at the membership's own scale, A estimates the density
    of score products at the threshold and does not depend on the step.
    """
    xi = system.xi
    dim = system.dim
    rows = system.psi(xi)
    n = rows.shape[0]
    b = rows.T @ rows / n
    jacobian_psi = system.jacobian_psi or system.psi
    steps = np.maximum(FD_REL_STEP * np.abs(xi), FD_ABS_FLOOR)
    if system.bandwidth is not None:
        steps[system.labels.index("threshold")] = THRESHOLD_STEP_SHARE * system.bandwidth
    a = np.empty((dim, dim))
    for j, h in enumerate(steps):
        up = xi.copy()
        up[j] += h
        dn = xi.copy()
        dn[j] -= h
        a[:, j] = (jacobian_psi(up).mean(axis=0) - jacobian_psi(dn).mean(axis=0)) / (2.0 * h)
    try:
        bread = np.linalg.solve(a, np.eye(dim))
    except np.linalg.LinAlgError:
        raise SingularSystemError("Jacobian of the stacked system is singular")
    if not np.all(np.isfinite(bread)):
        raise SingularSystemError("Jacobian inverse is non-finite")
    var = float(system.eta @ bread @ b @ bread.T @ system.eta) / n
    if not np.isfinite(var):
        raise NumericalError("sandwich variance is non-finite")
    if var < 0.0:
        raise NegativeVarianceError(f"sandwich variance is negative ({var:.3e})")
    return var


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def bootstrap_ci(
    estimator: Callable,
    data: Dataset,
    reps: int,
    seed,
    r1_mask: np.ndarray | None = None,
    max_error_share: float = 0.05,
) -> tuple[float, float, float]:
    """Stratified nonparametric bootstrap: (variance, ci_low, ci_high).

    Trial and target rows are resampled independently with replacement;
    ``estimator(dataset, r1_mask)`` re-runs the full pipeline on each
    replicate. Replicate r draws from default_rng([seed, r]), so results
    are identical under any execution order. Numerical failures of
    individual replicates (an ExtvalError or a LinAlgError) are tolerated
    up to ``max_error_share``; any other exception is a bug and propagates.
    """
    if reps < 100:
        raise ConfigError("bootstrap needs at least 100 replicates")
    idx_trial = np.flatnonzero(data.trial_mask)
    idx_target = np.flatnonzero(data.target_mask)
    estimates = np.full(reps, np.nan)
    failures = 0
    for r in range(reps):
        rng = np.random.default_rng([_seed_int(seed), r])
        bi = np.concatenate([
            rng.choice(idx_trial, size=idx_trial.size, replace=True),
            rng.choice(idx_target, size=idx_target.size, replace=True),
        ])
        sub_mask = None
        if r1_mask is not None:
            sub_mask = np.asarray(r1_mask, dtype=bool)[
                np.searchsorted(idx_target, bi[idx_trial.size:])
            ]
        try:
            estimates[r] = estimator(data.subset(bi), sub_mask)
        except (ExtvalError, np.linalg.LinAlgError):
            failures += 1
    if failures > max_error_share * reps:
        raise NumericalError(
            f"bootstrap failed: {failures}/{reps} replicates errored"
        )
    good = estimates[np.isfinite(estimates)]
    var = float(np.var(good, ddof=1)) if good.size > 1 else 0.0
    lo, hi = (float(v) for v in np.percentile(good, [2.5, 97.5]))
    return var, lo, hi


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ConfigError("bootstrap seed must be an integer")
