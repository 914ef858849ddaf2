"""Efficiency bound as a yardstick for the augmented estimator.

Two exercises:
1. a hand-checkable configuration (balanced participation and
   assignment, unit variances, constant effect) where the bound is
   exactly 8, and
2. a weak-selection process, its participation intercept calibrated to a
   1% rate from the process's own slopes and covariate law, where the
   augmented estimator's realized n * variance should sit near the bound.

Run:  python demos/04_efficiency_bound.py
"""

import numpy as np

from extval import (
    DgpConfig,
    GlmFamily,
    augmented_ipw,
    calibrate_intercept,
    efficiency_bound_mc,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    generate_cohort,
)

balanced = DgpConfig(
    beta=(0.0,) * 5,
    theta0=(0.0, 1.0, 1.0, 1.0, 1.0),
    theta1=(1.0, 1.0, 1.0, 1.0, 1.0),   # constant unit effect
    subsample_rate=1.0,
    exclusions=False,
    e_prob=0.0,
)
print(f"balanced half/half design: bound = {efficiency_bound_mc(balanced, 1_000_000):.4f} "
      "(pencil-and-paper value: 8)")

slopes = (-0.2, 0.1, 0.1, 0.1)
# the intercept that gives these slopes a 1% participation rate
b0 = calibrate_intercept(
    DgpConfig(beta=(0.0, *slopes), exclusions=False, e_prob=0.0), 0.01, mc_draws=1_000_000
)
weak = DgpConfig(
    n_total=100_000, beta=(b0, *slopes),
    exclusions=False, e_prob=0.0, effect_shift=0.0,
)
bound = efficiency_bound_mc(weak, 1_000_000)
print(f"weak selection at a 1% participation rate: bound = {bound:.1f}")

reps = 120
ests, sizes = [], []
for r in range(reps):
    data, _ = generate_cohort(weak, seed=[2_024, r])
    sf = fit_sampling_score(data)
    pf = fit_propensity_score(data)
    of = fit_outcome_models(data, GlmFamily.GAUSSIAN_IDENTITY)
    ests.append(augmented_ipw(data, sf, pf, of, variance="none").estimate)
    sizes.append(data.n)
n_var = np.mean(sizes) * np.var(ests, ddof=1)
print(f"augmented estimator over {reps} cohorts: n * Var = {n_var:.1f} "
      f"({n_var / bound:.2f} of the bound)")
