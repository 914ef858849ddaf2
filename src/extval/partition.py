"""Division of the target sample by representedness.

Target rows fall into three groups: rows matching known exclusion
criteria (unrepresented), rows whose participation-by-treatment score
products fall below a threshold delta (underrepresented), and the rest
(well-represented). The threshold is solved so that the well-represented
group is a requested share of the full target sample. Exclusions arrive
as a boolean mask over the target rows; rules over named CSV columns are
evaluated into that mask by the command line (``cli.evaluate_raw_rules``).

Group membership is smoothed through a normal CDF with a tiny scale so
that threshold estimation can be stacked into standard M-estimation
machinery; with the default scale of 1e-8 the smooth weights are
numerically indistinguishable from the hard indicator away from the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data import Dataset
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
BISECT_ITER = 200
INTERVAL_FLOOR = 1e-10


@dataclass(frozen=True)
class PartitionResult:
    """Per-target-row labels and smooth weights plus solved threshold.

    ``labels`` holds 1/2/3 for unrepresented/underrepresented/well-
    represented. ``p_hat`` is (p1, p2, p3) where p1 is the labeled
    exclusion share, p3 the achieved mean smooth weight (= p3_star up to
    solver tolerance), and p2 the remainder; hard label counts can
    differ from p_hat by less than one row when the threshold sits
    inside a smoothing window.
    """

    labels: np.ndarray
    k_smooth: np.ndarray
    delta_star: float
    p_hat: tuple[float, float, float]
    p3_star: float
    epsilon: float

    @property
    def r1_mask(self) -> np.ndarray:
        return self.labels == 1

    @property
    def counts(self) -> tuple[int, int, int]:
        return tuple(int(np.sum(self.labels == g)) for g in (1, 2, 3))


def _smooth_k(prod1, prod0, delta: float, epsilon: float):
    return ndtr((prod1 - delta) / epsilon) * ndtr((prod0 - delta) / epsilon)


def solve_threshold(
    target_scores,
    p3_star: float,
    epsilon: float = DEFAULT_EPSILON,
    r1_mask: np.ndarray | None = None,
) -> float:
    """Solve for the threshold delta* by bisection.

    ``target_scores`` is (hs, e1, e0), arrays over target rows. The
    objective is the mean smooth inclusion weight over all target rows,
    with excluded rows forced to zero; it is nonincreasing in delta.
    Plateau ties resolve to the smallest delta achieving mean <= p3*.
    """
    hs, e1, e0 = (np.asarray(v, dtype=float) for v in target_scores)
    m = hs.shape[0]
    if m == 0:
        raise DataError("no target rows to solve the threshold on")
    if r1_mask is None:
        r1_mask = np.zeros(m, dtype=bool)
    r1_mask = np.asarray(r1_mask, dtype=bool)
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

    def mean_k(delta: float) -> float:
        return float(np.sum(_smooth_k(prod1, prod0, delta, epsilon))) / m

    lo = 0.0
    hi = float(min_prods.max()) + max(1.0, 50.0 * epsilon)
    f_lo = mean_k(lo) - p3_star
    if f_lo < -MEAN_TOL:
        raise UnattainableProportionError(
            f"attainable mass {f_lo + p3_star:.8f} below requested p3*={p3_star} "
            "(score products too close to zero for the smoothing scale)"
        )
    if f_lo <= 1e-9:
        return lo
    delta = None
    for _ in range(BISECT_ITER):
        mid = 0.5 * (lo + hi)
        f = mean_k(mid) - p3_star
        if abs(f) <= 1e-9:
            delta = mid
            break
        if f > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < INTERVAL_FLOOR and abs(f) <= MEAN_TOL:
            delta = mid
            break
    if delta is None:
        delta = 0.5 * (lo + hi)
    if abs(mean_k(delta) - p3_star) > MEAN_TOL:
        raise NotConvergedError("threshold bisection did not reach the mean tolerance")
    # plateau tie-break: the smallest delta achieving mean <= p3*, a few
    # smoothing scales above the largest min product below the threshold
    if not np.any(np.abs(min_prods - delta) <= 8.0 * epsilon):
        below = min_prods[min_prods < delta]
        if below.size:
            snapped = float(below.max()) + 4.0 * epsilon
            if abs(mean_k(snapped) - p3_star) <= MEAN_TOL:
                delta = snapped
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
    """
    data.require_both_samples()
    for fit in (sampling_fit, propensity_fit):
        if not fit.converged:
            raise NotConvergedError("partition requires converged score fits")
    x_t = data.x[data.target_mask]
    hs = predict_mean(sampling_fit, x_t)
    e1 = predict_mean(propensity_fit, x_t)
    e0 = 1.0 - e1
    r1 = np.zeros(data.n2, dtype=bool) if rules is None else np.asarray(rules, dtype=bool)
    if r1.shape != (data.n2,):
        raise DimensionError("exclusion mask must align with target rows")
    delta = solve_threshold((hs, e1, e0), p3_star, epsilon, r1)

    k = _smooth_k(hs * e1, hs * e0, delta, epsilon)
    k = np.where(r1, 0.0, k)
    hard = (hs * e1 >= delta) & (hs * e0 >= delta) & ~r1
    labels = np.full(data.n2, 2, dtype=np.int8)
    labels[r1] = 1
    labels[hard] = 3

    p1 = float(np.mean(r1))
    p3 = float(np.mean(k))
    return PartitionResult(
        labels=labels,
        k_smooth=k,
        delta_star=delta,
        p_hat=(p1, 1.0 - p1 - p3, p3),
        p3_star=p3_star,
        epsilon=epsilon,
    )
