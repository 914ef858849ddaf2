"""Weighting and augmented-weighting estimators with stacked-equation
variance.

All point estimators are self-normalized (Hajek) weighted means, so
they are invariant to rescaling the weights. Variances come from
M-estimation: every nuisance fit contributes its score rows, the
threshold contributes its defining equation, and the targets of
inference enter as weighted-mean residual rows. The asymptotic variance
of the contrast eta'xi is eta' A^-1 B A^-T eta / n with A the Jacobian
of the mean estimating function and B its second moment.

One core computes the per-row quantities (sampling score, propensity,
transport weights, threshold membership, outcome means and the AIPW
residual) at a stacked parameter vector. The four public estimators are
thin wrappers over one estimate function that reads that core at the
component fits; its weighted means are the plug-in solution of the
stacked system, whose estimating functions read the same core at other
parameter vectors. The weighting estimators are the augmented ones
with outcome models fixed at zero, so every system has one layout.
The sandwich reads the per-row quantities that the plug-in solution was
computed from, so the stacked rows are evaluated once, and it works
block by block without building the (n, dim) matrix of rows. Each block
is summed over the rows where it can be non-zero: the propensity,
outcome, v1 and v2 blocks over the trial rows, the sampling, threshold
and v3 blocks over all rows. It checks that their mean is zero and
raises StationarityError when it is not (component fits that do not
belong together).

A is built in closed form from the same per-row quantities (Stefanski &
Boos 2002, "The calculus of M-estimation"): -X'diag(c)X/n for each GLM
block, and for the threshold and weighted-mean rows the chained
derivatives of the membership, the transport weights and the outcome
means. Its terms in the membership's derivatives, and the threshold
row, are summed over the window of rows whose membership is smoothed
(not exactly 0 or 1), the other terms over the rows of their block. The
variance is then the mean square of the contrast's per-row influence
values, -psi_i' A^-T eta, over n. The derivative of the
membership at its own smoothing scale (1e-8 by default) would count the
one or two target rows next to the threshold rather than estimate the
density of score products there. In A alone, the membership is
therefore smoothed at a data-driven bandwidth: the Hall-Sheather
bandwidth in quantile space, at the level of the threshold among the
non-excluded target min-products, converted to product units as half
the gap between the order statistics at that level plus and minus the
bandwidth (as quantile-regression sandwiches estimate the sparsity). B,
the plug-in solution and every point estimate keep the membership's own
scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset, take_rows
from .errors import (
    ConfigError,
    ExtvalError,
    NotConvergedError,
    NumericalError,
    SingularSystemError,
    StationarityError,
    ZeroWeightError,
)
from .glm import GlmFamily, GlmFit, expit, predict_mean
from .parallel import ordered_map
from .partition import PartitionResult, _membership, _saturation, normal_cdf

Z95 = 1.96
HALL_SHEATHER_ALPHA = 0.05
# z at 1 - alpha/2, the Hall-Sheather bandwidth's quantile of the normal
_Z_HALL_SHEATHER = NormalDist().inv_cdf(1.0 - 0.5 * HALL_SHEATHER_ALPHA)
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

    ``psi`` maps a parameter vector to the (n, xi.size) matrix of per-row
    estimating-function values; ``eta`` is the contrast whose variance
    is wanted; ``jacobian`` is the square Jacobian of the mean
    estimating function at ``xi``. A system with an estimated threshold
    (label ``"threshold"``) also carries ``bandwidth``, the smoothing
    scale of the threshold membership at which ``jacobian`` is taken,
    and ``jacobian_psi``, the same estimating functions smoothed at that
    bandwidth; without them ``jacobian`` is that of ``psi``. A system from
    ``build_stacked_system`` keeps its rows at ``xi``, which
    ``sandwich_variance`` reads in place of ``psi`` (a replaced ``psi``
    is not called; a replaced ``xi`` is read through ``psi``), each
    block on the rows it lives on: the trial rows for the propensity,
    outcome, v1 and v2 blocks, all rows for the others. ``psi`` writes
    those blocks' target rows as 0.
    """

    xi: np.ndarray
    eta: np.ndarray
    psi: Callable[[np.ndarray], np.ndarray]
    jacobian: np.ndarray
    labels: tuple[str, ...] = field(default=())
    jacobian_psi: Callable[[np.ndarray], np.ndarray] | None = None
    bandwidth: float | None = None
    # the pipeline, its rows at xi and that xi, from build_stacked_system
    _fitted: tuple | None = field(default=None, repr=False, compare=False)


def _hajek(values: np.ndarray, weights: np.ndarray, what: str) -> float:
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ZeroWeightError(f"total weight for {what} is not positive")
    return float(np.sum(weights * values) / total)


def _outcome_link(outcome_fits: tuple[GlmFit, GlmFit]):
    """The outcome mean as a function of the linear predictor, and its
    derivative as a function of the mean."""
    fam = outcome_fits[0].family
    if outcome_fits[1].family is not fam:
        raise ConfigError("outcome fits must share a family")
    if fam is GlmFamily.BERNOULLI_LOGIT:
        return expit, lambda m: m * (1.0 - m)
    return (lambda eta: eta), np.ones_like


def _normal_pdf(u: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)


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
        # the rows the trial-only blocks live on, and their design rows
        self.trial = np.flatnonzero(data.trial_mask)
        self.x_trial = data.x_trial
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
        self.at_fits = (
            predict_mean(sampling_fit, data.x),
            self.fixed_e1 if propensity_fit.fixed else _propensity(data, propensity_fit, partition),
        )
        self.link, self.link_slope = (
            _outcome_link(outcome_fits) if outcome_fits is not None else (None, None)
        )
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
        partition's epsilon by default, see threshold_bandwidth). At
        ``nuisance`` itself hs and e1 are ``at_fits``, the scores the fits
        and the partition hold."""
        x, s, a = self.data.x, self.data.s, self.a
        if xi is self.nuisance:
            hs, e1 = self.at_fits
        else:
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
            k = _membership(hs * e1, hs * e0, delta, scale or part.epsilon)
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
        return [_hajek(v, w, name) for (w, v), name in zip(fitted.means, self.tail)]

    def estimating_functions(self, xi: np.ndarray, r: _Rows) -> list:
        """The estimating functions at ``xi`` from its per-row quantities
        ``r``, as (slice, rows, multiplier, design) per block in layout
        order: on ``rows`` (the trial rows, or slice(None) for all), the
        block's rows are multiplier[:, None] * design, and elsewhere 0.
        design is x on those rows for the GLM blocks and a column of ones
        for the threshold and the means. The propensity, outcome, v1 and
        v2 blocks are 0 on every target row, so they live on the trial
        rows; the sampling, threshold and v3 blocks on all rows."""
        t, every, sl = self.trial, slice(None), self.slices
        s, a, y = self.data.s, self.a[t], self.y[t]
        xt, ones = self.x_trial, np.ones((self.data.n, 1))
        terms = [(sl["sampling"], every, s - r.hs, self.data.x)]
        if self.fixed_e1 is None:
            terms.append((sl["propensity"], t, a - r.e1[t], xt))
        if self.fixed_m is None:
            terms.append((sl["outcome1"], t, a * (y - r.m1[t]), xt))
            terms.append((sl["outcome0"], t, (1.0 - a) * (y - r.m0[t]), xt))
        if self.estimate_delta:
            terms.append((sl["threshold"], every, (1.0 - s) * (r.k - self.partition.p3_star), ones))
        for rows, name, (w, v) in zip((t, t, every), self.tail, r.means):
            terms.append((sl[name], rows, w[rows] * (v[rows] - xi[sl[name]][0]), ones[rows]))
        return terms

    def psi(self, xi: np.ndarray, scale: float | None = None) -> np.ndarray:
        """The (n, dim) estimating-function rows at ``xi``."""
        out = np.zeros((self.data.n, self.dim))
        for sl, rows, m, design in self.estimating_functions(xi, self.rows(xi, scale)):
            out[rows, sl] = m[:, None] * design
        return out

    def membership_slopes(self, r: _Rows, xi: np.ndarray, scale: float | None = None):
        """The threshold membership k at ``xi`` smoothed at ``scale``, at
        full length, and its derivatives on the window: the indices of the
        rows that ``_saturation`` leaves unsaturated, and on those rows
        {block: per-row multiplier of x} for the score coefficients and
        per-row values for the threshold.

        With k = Phi(u1) Phi(u0), u1 = (hs e1 - delta)/h and
        u0 = (hs e0 - delta)/h, write g1 = phi(u1) Phi(u0)/h and
        g0 = Phi(u1) phi(u0)/h, both 0 on excluded rows. Only the window is
        smoothed; on the other rows k is exactly 0 or 1 and g1 and g0 are
        exactly 0, so every derivative of k is 0 there.
        """
        part = self.partition
        delta = xi[self.slices["threshold"]][0] if self.estimate_delta else part.delta_star
        h = scale or part.epsilon
        # hs min(e1, e0) is min(hs e1, hs e0) bit for bit: rounding is monotone
        k, window = _saturation(r.hs * np.minimum(r.e1, 1.0 - r.e1), delta, delta, h)
        hs, e1 = r.hs[window], r.e1[window]
        e0 = 1.0 - e1
        # u1 and u0 as the rows of one array, for one call of normal_cdf
        u = (hs * np.stack((e1, e0)) - delta) / h
        u1, u0 = u
        c1, c0 = normal_cdf(u)
        k[window] = c1 * c0
        excluded = self.r1[window]
        g1 = np.where(excluded, 0.0, _normal_pdf(u1) * c0 / h)
        g0 = np.where(excluded, 0.0, c1 * _normal_pdf(u0) / h)
        return np.where(self.r1, 0.0, k), window, {
            "sampling": (g1 * e1 + g0 * e0) * hs * (1.0 - hs),
            "propensity": (g1 - g0) * hs * e1 * e0,
            "threshold": -(g1 + g0),
        }

    def jacobian(self, xi: np.ndarray, r: _Rows, scale: float | None = None) -> np.ndarray:
        """The (dim, dim) Jacobian of the mean of ``psi(., scale)`` at ``xi``,
        in closed form from the per-row quantities ``r`` at ``xi``.

        Each GLM block is -X'diag(c)X/n, with c = hs(1 - hs) over all rows
        and e1 e0, a m1' and (1 - a) m0' over the trial rows. Each
        weighted-mean row w (v - v_j) with w = k omega chains the
        derivatives of the membership k, of the transport weight omega
        (d w1 = -w1 x and d w0 = -w0 x in the sampling coefficients,
        d w1 = -w1 e0 x and d w0 = w0 e1 x in the propensity coefficients)
        and of the value v in the outcome coefficients; its diagonal entry
        is -mean(w). The terms in omega's and v's derivatives are summed
        over the trial rows for v1 and v2 (omega is 0 elsewhere) and over
        all rows for v3; the terms in k's derivatives, and the threshold
        row, over the window of ``membership_slopes`` alone.
        """
        x, xt, t, s = self.data.x, self.x_trial, self.trial, self.data.s
        n = x.shape[0]
        sl = self.slices
        jac = np.zeros((self.dim, self.dim))

        def gram(block: str, c: np.ndarray, design: np.ndarray = xt):
            jac[sl[block], sl[block]] = -(design.T @ (c[:, None] * design)) / n

        gram("sampling", r.hs * (1.0 - r.hs), x)
        e1 = r.e1[t]
        e0 = 1.0 - e1
        # per block, the derivatives of log omega on the trial rows (v1, v2)
        # and of v, as multipliers of x
        log_slopes = {"sampling": (-1.0, -1.0)}
        value_slopes = {}
        if self.fixed_e1 is None:
            gram("propensity", e1 * e0)
            log_slopes["propensity"] = (-e0, e1)
        k = np.broadcast_to(1.0, n)  # untrimmed: a length-n view of one 1.0
        if self.partition is not None:
            k, window, k_slopes = self.membership_slopes(r, xi, scale)
            xw, omegas = take_rows(x, window), (r.w1[window], r.w0[window], 1.0 - s[window])
            # each row's factor of d k: omega (v - v_j) for the means and
            # 1 - s for the threshold
            factors = {
                name: omega * (v[window] - xi[sl[name]][0])
                for name, omega, (_, v) in zip(self.tail, omegas, r.means)
            }
            if self.estimate_delta:
                factors["threshold"] = omegas[2]
            for name, factor in factors.items():
                row = sl[name].start
                for block in log_slopes:
                    jac[row, sl[block]] = (factor * k_slopes[block]) @ xw / n
                if self.estimate_delta:
                    jac[row, sl["threshold"]] = factor @ k_slopes["threshold"] / n
            del xw, omegas, factors, k_slopes  # before the full-length v3 terms
        if self.fixed_m is None:
            dm1, dm0 = self.link_slope(r.m1), self.link_slope(r.m0)
            d1, d0 = self.a[t] * dm1[t], (1.0 - self.a[t]) * dm0[t]
            gram("outcome1", d1)
            gram("outcome0", d0)
            value_slopes = {"outcome1": (-d1, -d1, dm1), "outcome0": (-d0, -d0, -dm0)}

        blocks = zip(self.tail, (t, t, slice(None)), (r.w1[t], r.w0[t], 1.0 - s), (xt, xt, x))
        for j, (name, rows, omega, design) in enumerate(blocks):
            row = sl[name].start
            weight = k[rows] * omega
            if j < 2:  # v3's omega, 1 - s, has no derivative
                centred = r.means[j][1][rows] - xi[row]
                for block, slopes in log_slopes.items():
                    jac[row, sl[block]] += (weight * slopes[j] * centred) @ design / n
            for block, slopes in value_slopes.items():
                jac[row, sl[block]] = (weight * slopes[j]) @ design / n
            jac[row, row] = -np.sum(weight) / n
        return jac


def _propensity(data: Dataset, fit: GlmFit, partition: PartitionResult | None) -> np.ndarray:
    """The propensity scores of every row at ``fit``: on the trial rows the
    fit's own means (``glm.predict_mean`` on ``data.x_trial``), on the
    target rows those that ``partition`` evaluated from this design and
    fit, or evaluated here when it holds none."""
    e1 = np.empty(data.n)
    e1[data.trial_mask] = predict_mean(fit, data.x_trial)
    kept = partition._e1 if partition is not None else None
    if kept is not None and kept[0] is data.x and kept[1] is fit:
        e1[data.target_mask] = kept[2]
    else:
        e1[data.target_mask] = predict_mean(fit, take_rows(data.x, data.target_mask))
    return e1


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
    "none"; the weighting estimator ("ipw") when ``outcome_fits`` is None.
    Under the sandwich, the weighted means are read off the stacked
    system's plug-in solution, so the pipeline is built once."""
    if variance == "sandwich":
        system = build_stacked_system(data, sampling_fit, propensity_fit, outcome_fits, partition)
        v1, v2, v3 = system.xi[-3:].tolist()
        var = sandwich_variance(system)
    elif variance == "none":
        pipeline = _Pipeline(data, sampling_fit, propensity_fit, outcome_fits, partition)
        v1, v2, v3 = pipeline.weighted_means(pipeline.rows(pipeline.nuisance))
        var = float("nan")
    else:
        raise ConfigError(f"unknown variance method {variance!r} (use bootstrap_ci for bootstrap)")
    est = v1 - v2 + v3
    half = Z95 * float(np.sqrt(var))
    lo, hi = est - half, est + half
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
    plug-in solution is assembled from the component fits; that it zeros
    the mean estimating function is checked by ``sandwich_variance``, on
    the per-row quantities the system keeps from here, so components
    that do not belong together raise StationarityError there. The
    Jacobian is taken in closed form at the plug-in solution, with the
    threshold membership smoothed at ``bandwidth`` (see
    threshold_bandwidth) when the threshold is estimated.
    """
    pipeline = _Pipeline(data, sampling_fit, propensity_fit, outcome_fits, partition)
    # the per-row quantities read only the nuisance block, so these are
    # also the rows at the plug-in solution
    fitted = pipeline.rows(pipeline.nuisance)
    xi_hat = np.concatenate([pipeline.nuisance, pipeline.weighted_means(fitted)])
    eta = np.zeros(pipeline.dim)
    eta[-3:] = (1.0, -1.0, 1.0)
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
        xi=xi_hat, eta=eta, psi=pipeline.psi,
        jacobian=pipeline.jacobian(xi_hat, fitted, bandwidth),
        labels=tuple(pipeline.labels), jacobian_psi=jacobian_psi, bandwidth=bandwidth,
        _fitted=(pipeline, fitted, xi_hat),
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
    z = NormalDist().inv_cdf(level)
    density = _normal_pdf(z)
    h = (
        m ** (-1.0 / 3.0)
        * _Z_HALL_SHEATHER ** (2.0 / 3.0)
        * (1.5 * density ** 2 / (2.0 * z * z + 1.0)) ** (1.0 / 3.0)
    )
    lo, hi = (_order_statistic(min_prods, min(max(p, 0.0), 1.0)) for p in (level - h, level + h))
    return max(0.5 * (hi - lo), epsilon)


def _order_statistic(values: np.ndarray, p: float) -> float:
    """``np.quantile(values, p, method="inverted_cdf")`` for p in [0, 1] and
    values without NaN: the ceil(n p)-th smallest value (at least the
    first). numpy partitions at one index several times faster than at the
    several that its quantile asks for."""
    i = max(math.ceil(values.size * p - 1.0), 0)
    return float(np.partition(values, i)[i])


def sandwich_variance(system: StackedSystem) -> float:
    """Variance of the system's contrast, eta' A^-1 B A^-T eta / n.

    A is the system's ``jacobian`` and B the second moment of the
    estimating functions at ``xi``. Their mean must be at most 1e-5 per
    coordinate, or ``xi`` does not solve the system (its fits do not
    belong together) and StationarityError is raised. With u solving
    A'u = eta, the variance is the mean square over n of the influence
    values -psi_i'u, whose mean is eta'(xi_hat - xi) to first order: no
    inverse of A, never negative. A system from ``build_stacked_system``
    sums them block by block from the rows it keeps, as multiplier times
    design @ u_block added into the block's rows (the trial rows for the
    propensity, outcome, v1 and v2 blocks, all rows for the others), in
    layout order: no (n, dim) matrix, no second evaluation. Other
    systems, and one whose ``xi`` was replaced, call ``psi`` once and
    are one block over all rows.
    """
    pipeline, fitted, xi = system._fitted or (None, None, None)
    if xi is system.xi:
        terms = pipeline.estimating_functions(xi, fitted)
    else:
        rows = system.psi(system.xi)
        terms = [(slice(None), slice(None), np.ones(rows.shape[0]), rows)]
    n = terms[0][2].shape[0]
    mean = np.concatenate([design.T @ m for _, _, m, design in terms]) / n
    worst = float(np.max(np.abs(mean)))
    if worst > STATIONARITY_TOL:
        raise StationarityError(
            f"plug-in estimates do not solve the stacked equations "
            f"(max |mean psi| = {worst:.2e})"
        )
    try:
        u = np.linalg.solve(system.jacobian.T, system.eta)
    except np.linalg.LinAlgError:
        raise SingularSystemError("Jacobian of the stacked system is singular")
    if not np.all(np.isfinite(u)):
        raise SingularSystemError("Jacobian solve is non-finite")
    values = np.zeros(n)  # influence values, sign dropped
    for sl, rows, m, design in terms:
        values[rows] += m * (design @ u[sl])
    var = float(values @ values) / n ** 2
    if not np.isfinite(var):
        raise NumericalError("sandwich variance is non-finite")
    return var


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

# share of the replicates that may fail before the bootstrap does
MAX_ERROR_SHARE = 0.05


def bootstrap_ci(
    estimator: Callable,
    data: Dataset,
    reps: int,
    seed,
    r1_mask: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Stratified nonparametric bootstrap: (variance, ci_low, ci_high).

    Trial and target rows are resampled independently with replacement;
    ``estimator(dataset, r1_mask)`` re-runs the full pipeline on each
    replicate. Replicate r draws from default_rng([seed, r]). It draws
    positions within the trial block, then positions within the target
    block; these index the target rows and ``r1_mask`` alike, and give the
    same rows as ``rng.choice`` of the row indices would.

    Replicates run on one process per CPU in this process's affinity mask
    (``taskset`` limits it), at most ``reps``: this process runs the first
    share and forked worker processes the others. They run serially on one
    CPU, on a platform without a safe fork, inside a multiprocessing child
    or inside an outer ``ordered_map`` (``parallel.ordered_map``). The
    workers inherit ``estimator``, ``data`` and ``r1_mask`` and return one
    outcome per replicate, which are put back in replicate order, so the
    variance, the interval and the failure count do not depend on the
    worker count. Each worker inherits the BLAS thread setting as well.

    Numerical failures of individual replicates (an ExtvalError or a
    LinAlgError, or a non-finite estimate) are tolerated up to
    ``MAX_ERROR_SHARE`` of the replicates; past it, NumericalError names
    the count of each failure class. Any other exception is a bug and
    propagates with its own class.
    """
    replicate = partial(
        _replicate, estimator, data, _bootstrap_seed(reps, seed),
        np.flatnonzero(data.trial_mask), np.flatnonzero(data.target_mask),
        None if r1_mask is None else np.asarray(r1_mask, dtype=bool),
    )
    outcomes = ordered_map(replicate, range(reps))
    estimates = np.array([v if isinstance(v, float) else np.nan for v in outcomes])
    failures = Counter(
        v if isinstance(v, str) else "non-finite estimate"
        for v, good in zip(outcomes, np.isfinite(estimates)) if not good
    )
    failed = sum(failures.values())
    if failed > MAX_ERROR_SHARE * reps:
        counts = ", ".join(f"{name}: {count}" for name, count in failures.most_common())
        raise NumericalError(f"bootstrap failed: {failed}/{reps} replicates errored ({counts})")
    good = estimates[np.isfinite(estimates)]
    var = float(np.var(good, ddof=1)) if good.size > 1 else 0.0
    lo, hi = (float(v) for v in np.percentile(good, [2.5, 97.5]))
    return var, lo, hi


def _replicate(estimator, data, seed, idx_trial, idx_target, r1_mask, r: int) -> float | str:
    """Replicate r's estimate, or the class name of the numerical failure
    (ExtvalError or LinAlgError) that stopped it."""
    rng = np.random.default_rng([seed, r])
    at_trial = rng.integers(0, idx_trial.size, idx_trial.size)
    at_target = rng.integers(0, idx_target.size, idx_target.size)
    bi = np.concatenate([idx_trial[at_trial], idx_target[at_target]])
    sub_mask = None if r1_mask is None else r1_mask[at_target]
    try:
        return float(estimator(data.subset(bi), sub_mask))
    except (ExtvalError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__


def _bootstrap_seed(reps, seed) -> int:
    """``seed`` as an int; fewer than 100 replicates, or a seed that is not
    a non-negative integer, is a ConfigError."""
    if reps < 100:
        raise ConfigError("bootstrap needs at least 100 replicates")
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return int(seed)
    raise ConfigError(f"bootstrap seed must be a non-negative integer, got {seed!r}")
