"""Division of the target sample by representedness.

Target rows fall into three groups: rows matching known exclusion
criteria (unrepresented), rows whose participation-by-treatment score
products fall below a threshold delta (underrepresented), and the rest
(well-represented). The threshold is solved so that the well-represented
group is a requested share p3* of the full target sample. That makes it
a quantile-style trim: the threshold is an order statistic of the
non-excluded rows' smaller score products, moved within a few smoothing
scales so that the smoothed share is p3*. Exclusions arrive as a boolean
mask over the target rows; rules over named CSV columns are evaluated
into that mask by the command line (``cli.evaluate_raw_rules``).

Group membership is smoothed through a normal CDF with a tiny scale so
that threshold estimation can be stacked into standard M-estimation
machinery; with the default scale of 1e-8 the smooth weights are
numerically indistinguishable from the hard indicator away from the
threshold, and 40 scales away they are exactly 0 or 1. One rule
(``_saturation``) names those rows, so that only the others are smoothed,
both for the membership weights and inside the threshold solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, take_rows
from .errors import (
    DataError,
    DegenerateScoresError,
    DimensionError,
    NotConvergedError,
    UnattainableProportionError,
)
from .glm import GlmFit, predict_mean

DEFAULT_EPSILON = 1e-8
MEAN_TOL = 1e-6
# |u| beyond which normal_cdf(u) is exactly 1.0 or 0.0 in double precision
SATURATED = 40.0
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class PartitionResult:
    """Per-target-row labels plus solved threshold.

    ``labels`` holds 1/2/3 for unrepresented/underrepresented/well-represented
    rows. ``p_hat`` is (p1, p2, p3): p1 the labeled exclusion share, p3 the
    achieved mean smooth inclusion weight (p3_star to about 1e-12), and p2
    the remainder. The row that the threshold sits on carries a fractional
    weight, so hard label counts can differ from p_hat by less than one row.
    """

    labels: np.ndarray
    delta_star: float
    p_hat: tuple[float, float, float]
    p3_star: float
    epsilon: float
    # the target rows' propensity scores, and the design and the propensity
    # fit they were evaluated from, which the estimators read back
    _e1: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def r1_mask(self) -> np.ndarray:
        return self.labels == 1

    @property
    def counts(self) -> tuple[int, int, int]:
        return tuple(int(np.sum(self.labels == g)) for g in (1, 2, 3))


def _cdf(u: float) -> float:
    """The standard normal CDF at one float."""
    return 0.5 * math.erfc(u * -_SQRT_HALF)


def normal_cdf(u):
    """``_cdf`` elementwise, bit for bit, over an array or a scalar (as a
    0-d array). From u = 9 on it is exactly 1.0, and erfc is not called;
    below about -38.5 it is exactly 0.0, and NaN stays NaN."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    live = np.flatnonzero(~(flat >= 9.0))
    x = flat[live]
    x *= -_SQRT_HALF
    values = np.fromiter(map(math.erfc, memoryview(x)), float, live.size)
    values *= 0.5
    out = np.ones(flat.shape)
    out[live] = values
    return out.reshape(u.shape)


def _smooth_k(prod1, prod0, delta: float, epsilon: float):
    return normal_cdf((prod1 - delta) / epsilon) * normal_cdf((prod0 - delta) / epsilon)


def _saturation(min_prods, lo: float, hi: float, epsilon: float):
    """The weights that are exactly 1 for every delta in [lo, hi], and the
    indices of the rows that must be smoothed there.

    normal_cdf(u) is exactly 1.0 for u >= 40 and exactly 0.0 for
    u <= -40, and (p - delta) / epsilon is monotone in p and in delta, so
    the smaller product decides. A row with (min product - hi) / epsilon >= 40 weighs
    exactly 1 on the whole interval and one with (min product - lo) /
    epsilon <= -40 exactly 0; the rest, NaN included, are smoothed. The
    caller writes them into the returned buffer, whose sum then adds the
    same values in the same order as the sum over all rows would.
    """
    ones = (min_prods - hi) / epsilon >= SATURATED
    window = np.flatnonzero(~(ones | ((min_prods - lo) / epsilon <= -SATURATED)))
    return ones.astype(float), window


def _smooth_pairs(pairs, delta: float, epsilon: float) -> list:
    """``_smooth_k`` over an iterable of (prod1, prod0) pairs of floats, bit
    for bit: the same operations one float at a time, which on the few
    rows of a window cost less than numpy's calls."""
    return [_cdf((a - delta) / epsilon) * _cdf((b - delta) / epsilon) for a, b in pairs]


def _membership(prod1, prod0, delta: float, epsilon: float) -> np.ndarray:
    """``_smooth_k(prod1, prod0, delta, epsilon)``, bit for bit, smoothing only
    the rows that ``_saturation`` leaves unsaturated at delta."""
    k, window = _saturation(np.minimum(prod1, prod0), delta, delta, epsilon)
    k[window] = _smooth_pairs(zip(prod1[window].tolist(), prod0[window].tolist()), delta, epsilon)
    return k


def solve_threshold(
    target_scores,
    p3_star: float,
    epsilon: float,
    r1_mask: np.ndarray,
) -> float:
    """Solve for the threshold delta* at its order statistic.

    ``target_scores`` is (hs, e1, e0), arrays over the m target rows, and
    ``r1_mask`` marks the excluded ones. The smooth inclusion weights
    summed over the target rows (excluded rows at zero) fall with delta
    and must equal p3*·m. With j = floor(p3*·m), the (j+1)-th largest
    non-excluded min product q takes the fractional row p3*·m - j, so the
    sum crosses p3*·m within ten smoothing scales of q. An Illinois
    (modified regula falsi) solve on that bracket finds delta*. A whole
    p3*·m leaves the sum flat just above q, and any point there solves it.
    delta* is 0 at the attainable mass.

    Each evaluation smooths only the rows that ``_saturation`` leaves
    unsaturated on the bracket; delta* is bit-identical to smoothing every
    row.
    """
    hs, e1, e0 = (np.asarray(v, dtype=float) for v in target_scores)
    m = hs.shape[0]
    if m == 0:
        raise DataError("no target rows to solve the threshold on")
    r1_mask = np.asarray(r1_mask, dtype=bool)
    if r1_mask.shape != (m,):
        raise DimensionError("exclusion mask must align with target rows")
    prod1 = (hs * e1)[~r1_mask]
    prod0 = (hs * e0)[~r1_mask]
    p1_hat = float(np.mean(r1_mask))
    if not 0.0 < p3_star <= 1.0 - p1_hat + 1e-12:
        raise UnattainableProportionError(
            f"p3*={p3_star} not attainable with excluded share {p1_hat:.4f}"
        )
    if prod1.size == 0:
        raise UnattainableProportionError("all target rows are excluded")
    min_prods = np.minimum(prod1, prod0)
    if np.ptp(min_prods) == 0.0 and prod1.size > 1:
        # single plateau: solvable only at the full attainable mass
        if abs(p3_star - (1.0 - p1_hat)) > 1e-12:
            raise DegenerateScoresError(
                "all score products are identical; threshold is undetermined"
            )
    count = p3_star * m
    # a product one rounding from a whole count is that count, so that its
    # floor finds the same order statistic as the whole count would
    if abs(count - round(count)) <= 4.0 * np.spacing(count):
        count = float(round(count))

    f0 = (float(np.sum(_membership(prod1, prod0, 0.0, epsilon))) - count) / m
    if f0 < -MEAN_TOL:
        raise UnattainableProportionError(
            f"attainable mass {f0 + p3_star:.8f} below requested p3*={p3_star} "
            "(score products too close to zero for the smoothing scale)"
        )
    if f0 <= 1e-9:
        return 0.0
    # the count at delta = 0 exceeds p3*·m, so j < the non-excluded rows
    j = int(np.floor(count))
    at = min_prods.size - j - 1
    q = float(np.partition(min_prods, at)[at])
    lo, hi = q - 10.0 * epsilon, q + 10.0 * epsilon
    weights, window = _saturation(min_prods, lo, hi, epsilon)
    pairs = list(zip(prod1[window].tolist(), prod0[window].tolist()))

    def excess(delta: float) -> float:
        weights[window] = _smooth_pairs(pairs, delta, epsilon)
        return float(np.sum(weights)) - count

    # regula falsi keeps every iterate in [lo, hi] up to a rounding of
    # hi - lo, far inside the margin that _saturation leaves before +-40
    f_lo = excess(lo)
    delta = hi
    f_hi = f = excess(hi)
    kept = 0
    for _ in range(100):
        # stop at a share within 1e-12 of p3*, or at the float spacing of delta
        if abs(f) <= 1e-12 * m or hi - lo <= 4.0 * np.spacing(abs(q)):
            break
        delta = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f = excess(delta)
        # halving the value of an end kept twice keeps both ends moving
        if f > 0.0:
            lo, f_lo, f_hi = delta, f, f_hi * (0.5 if kept < 0 else 1.0)
            kept = -1
        else:
            hi, f_hi, f_lo = delta, f, f_lo * (0.5 if kept > 0 else 1.0)
            kept = 1
    if abs(f) / m > MEAN_TOL:
        raise NotConvergedError("threshold solve did not reach the mean tolerance")
    return float(delta)


def partition_population(
    data: Dataset,
    sampling_fit: GlmFit,
    propensity_fit: GlmFit,
    rules: np.ndarray | None,
    p3_star: float,
    epsilon: float = DEFAULT_EPSILON,
) -> PartitionResult:
    """Label every target row and solve the inclusion threshold.

    ``rules`` is a boolean mask aligned with the target rows, true where a
    row meets a known exclusion criterion, or None for no exclusions.
    The command line builds that mask from rules over named CSV columns
    (``cli.evaluate_raw_rules``).

    The sampling scores are those the sampling fit holds from its own fit
    on ``data.x`` (``glm.predict_mean``). The target rows' propensity
    scores are evaluated here, once, and the result keeps them for the
    estimators.
    """
    data.require_both_samples()
    for fit in (sampling_fit, propensity_fit):
        if not fit.converged:
            raise NotConvergedError("partition requires converged score fits")
    hs = predict_mean(sampling_fit, data.x).compress(data.target_mask)
    e1 = predict_mean(propensity_fit, take_rows(data.x, data.target_mask))
    e0 = 1.0 - e1
    r1 = np.zeros(data.n2, dtype=bool) if rules is None else np.asarray(rules, dtype=bool)
    delta = solve_threshold((hs, e1, e0), p3_star, epsilon, r1)

    k = np.where(r1, 0.0, _membership(hs * e1, hs * e0, delta, epsilon))
    hard = (hs * e1 >= delta) & (hs * e0 >= delta) & ~r1
    labels = np.full(data.n2, 2, dtype=np.int8)
    labels[r1] = 1
    labels[hard] = 3

    p1 = float(np.mean(r1))
    p3 = float(np.mean(k))
    return PartitionResult(
        labels=labels,
        delta_star=delta,
        p_hat=(p1, 1.0 - p1 - p3, p3),
        p3_star=p3_star,
        epsilon=epsilon,
        _e1=(data.x, propensity_fit, e1),
    )
