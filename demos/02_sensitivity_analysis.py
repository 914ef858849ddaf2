"""Sensitivity analysis for the full target population.

Starting from a well-represented estimate, sweep the proportional-
difference parameters k1 (unrepresented group) and k2 (underrepresented
group) over [-4, 4] under both assumptions and write the plot-ready
grids to CSV. The headline question: how wrong would the left-out
groups have to be before the conclusion flips?

Run:  python demos/02_sensitivity_analysis.py
"""

import numpy as np

from extval import (
    GlmFamily,
    SensitivityInput,
    extrapolate_group_ate,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    make_dataset,
    partition_population,
    sensitivity_sweep,
    trimmed_aipw,
)

rng = np.random.default_rng(7)

n1, n2 = 500, 4000
x_trial = np.column_stack([np.ones(n1), rng.standard_normal(n1) + 0.8, rng.standard_normal(n1)])
x_target = np.column_stack([np.ones(n2), rng.standard_normal(n2), rng.standard_normal(n2)])
excluded = rng.random(n2) < 0.02
treat = (rng.random(n1) < 0.5).astype(float)
y = 1.0 + 0.6 * x_trial[:, 1] + treat * 1.2 + rng.standard_normal(n1)
data = make_dataset(x_trial, treat, y, x_target)

sampling = fit_sampling_score(data)
propensity = fit_propensity_score(data, known_probability=0.5)
outcome_fits = fit_outcome_models(data, GlmFamily.GAUSSIAN_IDENTITY)
partition = partition_population(data, sampling, propensity, excluded, p3_star=0.9)

tau3 = trimmed_aipw(data, sampling, propensity, outcome_fits, partition)
print(f"well-represented ATE: {tau3.estimate:+.3f} "
      f"(95% CI [{tau3.ci_low:+.3f}, {tau3.ci_high:+.3f}])")

# model-based extrapolations for the two left-out groups
x_t = data.x[data.target_mask]
zeta1 = extrapolate_group_ate(outcome_fits, x_t[partition.labels == 1])
zeta2 = extrapolate_group_ate(outcome_fits, x_t[partition.labels == 2])
print(f"extrapolated group effects: zeta1 = {zeta1:+.3f}, zeta2 = {zeta2:+.3f}")

inp = SensitivityInput(
    tau3=tau3.estimate,
    tau3_ci=(tau3.ci_low, tau3.ci_high),
    p1=partition.p_hat[0],
    p2=partition.p_hat[1],
    p3_star=partition.p_hat[2],
    zeta1=zeta1,
    zeta2=zeta2,
)

ks = list(range(-4, 5))
for assumption in ("gpd", "epd"):
    grid = sensitivity_sweep(inp, ks, ks, assumption)
    path = f"sensitivity_{assumption}.csv"
    with open(path, "w") as fh:
        fh.write(grid.to_csv())
    lows = [row.ci_low for row in grid.rows]
    robust = all(lo > 0 for lo in lows)
    print(f"{assumption.upper()}: wrote {len(grid.rows)} rows to {path}; "
          f"{'CI stays above 0 everywhere' if robust else 'CI crosses 0 somewhere'} "
          f"(min ci_low = {min(lows):+.3f})")

diag = [r.estimate for r in sensitivity_sweep(inp, ks, [1.0], "gpd").rows]
print("\nGPD is linear in k1 with slope p1*tau3 ="
      f" {np.diff(diag)[0]:+.5f} per unit k1")
