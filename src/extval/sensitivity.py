"""Sensitivity analysis for the full target population.

Having estimated the well-represented ATE, the unrepresented and
underrepresented groups are handled by one of two assumptions:

* group proportional difference (GPD): each group's ATE is k_j times
  the well-represented ATE;
* extrapolation proportional difference (EPD): each group's ATE is k_j
  times a model-based extrapolation zeta_j.

Confidence intervals propagate only the well-represented estimate's
variance; group shares and extrapolations are treated as fixed, which
is exactly the uncertainty the sensitivity parameters are meant to
absorb.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyGroupError
from .glm import GlmFit, predict_mean

Z95 = 1.96


@dataclass(frozen=True)
class SensitivityInput:
    """Well-represented estimate plus the group shares it leaves out."""

    tau3: float
    tau3_variance: float
    p1: float
    p2: float
    p3_star: float
    zeta1: float | None = None
    zeta2: float | None = None

    def __post_init__(self):
        if self.p1 < -1e-12 or self.p2 < -1e-12:
            raise ConfigError("group shares must be nonnegative")
        if abs(self.p1 + self.p2 + self.p3_star - 1.0) > 1e-9:
            raise ConfigError("group shares and p3* must sum to 1")
        if self.tau3_variance < 0:
            raise ConfigError("tau3 variance must be nonnegative")

    @property
    def tau3_ci(self) -> tuple[float, float]:
        half = Z95 * float(np.sqrt(self.tau3_variance))
        return self.tau3 - half, self.tau3 + half


@dataclass(frozen=True)
class SensitivityEstimate:
    k1: float
    k2: float
    assumption: str
    estimate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SensitivityGrid:
    rows: tuple[SensitivityEstimate, ...]

    CSV_HEADER = ("k1", "k2", "assumption", "tau_hat", "ci_low", "ci_high")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for r in self.rows:
            writer.writerow([
                repr(float(r.k1)), repr(float(r.k2)), r.assumption,
                repr(float(r.estimate)), repr(float(r.ci_low)), repr(float(r.ci_high)),
            ])
        return buf.getvalue()


def gpd_estimate(inp: SensitivityInput, k1: float = 1.0, k2: float = 1.0) -> SensitivityEstimate:
    """Full-population ATE assuming group effects are k_j times tau3.

    tau_hat = (k1*p1 + k2*p2 + p3*) * tau3; the CI scales tau3's CI by
    the same factor (endpoints swap when the factor is negative).
    """
    factor = k1 * inp.p1 + k2 * inp.p2 + inp.p3_star
    lo3, hi3 = inp.tau3_ci
    lo, hi = sorted((factor * lo3, factor * hi3))
    return SensitivityEstimate(k1, k2, "gpd", factor * inp.tau3, lo, hi)


def epd_estimate(inp: SensitivityInput, k1: float = 1.0, k2: float = 1.0) -> SensitivityEstimate:
    """Full-population ATE assuming group effects are k_j times their
    model-based extrapolations zeta_j.

    tau_hat = p1*k1*zeta1 + p2*k2*zeta2 + p3*tau3; the CI is p3* times
    tau3's CI shifted by the fixed extrapolation term.
    """
    if inp.zeta1 is None or inp.zeta2 is None:
        raise ConfigError("EPD requires extrapolated group effects zeta1 and zeta2")
    shift = inp.p1 * k1 * inp.zeta1 + inp.p2 * k2 * inp.zeta2
    lo3, hi3 = inp.tau3_ci
    return SensitivityEstimate(
        k1, k2, "epd",
        shift + inp.p3_star * inp.tau3,
        shift + inp.p3_star * lo3,
        shift + inp.p3_star * hi3,
    )


def extrapolate_group_ate(
    outcome_fits: tuple[GlmFit, GlmFit], x_group: np.ndarray
) -> float:
    """Group-average model contrast m(1, x) - m(0, x) over a group's
    target rows; the models may be evaluated off their fitting support."""
    x_group = np.atleast_2d(np.asarray(x_group, dtype=float))
    if x_group.shape[0] == 0:
        raise EmptyGroupError("cannot extrapolate over an empty group")
    m1 = predict_mean(outcome_fits[0], x_group)
    m0 = predict_mean(outcome_fits[1], x_group)
    return float(np.mean(m1 - m0))


def sensitivity_sweep(
    inp: SensitivityInput,
    k1_grid: Sequence[float],
    k2_grid: Sequence[float],
    assumption: str,
) -> SensitivityGrid:
    """Evaluate the chosen assumption over the (k1, k2) lattice, row-major."""
    k1_grid = list(k1_grid)
    k2_grid = list(k2_grid)
    if not k1_grid or not k2_grid:
        raise ConfigError("sensitivity grids must be nonempty")
    if not all(np.isfinite(k) for k in (*k1_grid, *k2_grid)):
        raise ConfigError("sensitivity grids must be finite")
    if assumption not in ("gpd", "epd"):
        raise ConfigError(f"unknown sensitivity assumption {assumption!r}")
    fn = gpd_estimate if assumption == "gpd" else epd_estimate
    rows = tuple(fn(inp, k1, k2) for k1 in k1_grid for k2 in k2_grid)
    return SensitivityGrid(rows)
