"""Coverage of the replication study's EPD interval under three sandwich
variances, with the smaller trial arm's Kish effective sample size.

Usage: python3 tools/coverage.py [--cohorts N] [CHECK=SEED ...]

CHECK names the settings of an acceptance check (``check1``, ``check3``
or ``check7``) and SEED a master seed; with no CHECK=SEED the checks run
on their own seeds, each on as many cohorts as the check draws unless
``--cohorts`` says otherwise. Cohort r draws from [SEED, r] and is scored
as ``simulation._one_replication`` scores trimmed AIPW under EPD at
p3* = 0.8: the cohort's own group truths stand in for the extrapolations,
and ``epd_estimate`` moves the 95% Wald interval to the full population,
where it is scored against ``true_tau_oracle``. Cohorts run on two
processes (``parallel.ordered_map``). One row is printed per CHECK=SEED:
the cohorts, the failed ones, the coverage under each variance, and the
median over cohorts of the smaller arm's Kish ESS, (sum w)^2 / sum w^2
over the arm's trimmed weights k w.

The variances share the influence values IF_i that ``sandwich_variance``
sums, with u solving A'u = eta and IF_i = psi_i'u. HC0 is
sum IF_i^2 / n^2, the package's sandwich; HC2 is sum IF_i^2 / (1 - h_i) / n^2
and HC3 sum (IF_i / (1 - h_i))^2 / n^2, where the leverage h_i is a
trial row's share of its arm's trimmed weight, and 0 on target rows. Each
cohort checks that its HC0 is ``sandwich_variance`` to a relative 1e-12.
"""

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from extval import (  # noqa: E402
    DgpConfig,
    ExtvalError,
    GlmFamily,
    SensitivityInput,
    build_stacked_system,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    generate_cohort,
    partition_population,
    epd_estimate,
    sandwich_variance,
    true_tau_oracle,
)
from extval.estimators import Z95  # noqa: E402
from extval.parallel import ordered_map  # noqa: E402
from extval.simulation import _group_truths  # noqa: E402

P3_STAR = 0.8
# check -> (n_total, outcome family, cohorts, master seed), as the acceptance tests draw them
CHECKS = {
    "check1": (100_000, GlmFamily.GAUSSIAN_IDENTITY, 1000, 820_100),
    "check3": (100_000, GlmFamily.BERNOULLI_LOGIT, 1000, 820_400),
    "check7": (50_000, GlmFamily.GAUSSIAN_IDENTITY, 500, 820_720),
}
COLUMNS = ("check", "seed", "cohorts", "failed", "HC0", "HC2", "HC3", "median_min_ess")


def influence_values(system) -> np.ndarray:
    """The influence values of a ``build_stacked_system`` system, sign
    dropped, summed block by block as ``sandwich_variance`` sums them."""
    pipeline, fitted, xi = system._fitted
    u = np.linalg.solve(system.jacobian.T, system.eta)
    values = np.zeros(pipeline.data.n)
    for sl, rows, m, design in pipeline.estimating_functions(xi, fitted):
        values[rows] += m * (design @ u[sl])
    return values


def variances(system) -> tuple[tuple[float, float, float], float]:
    """The HC0, HC2 and HC3 variances of the system's contrast, and the
    smaller trial arm's Kish ESS."""
    hc0 = sandwich_variance(system)
    values = influence_values(system)
    n = values.size
    if abs(float(values @ values) / n ** 2 - hc0) > 1e-12 * hc0:
        raise AssertionError(f"HC0 {float(values @ values) / n ** 2!r} is not the sandwich {hc0!r}")
    arms = [w for w, _ in system._fitted[1].means[:2]]
    leverage = sum(w / w.sum() for w in arms)
    ess = min(w.sum() ** 2 / (w @ w) for w in arms)
    squares = values ** 2
    hc2 = float(np.sum(squares / (1.0 - leverage))) / n ** 2
    hc3 = float(np.sum(squares / (1.0 - leverage) ** 2)) / n ** 2
    return (hc0, hc2, hc3), float(ess)


def score(dgp: DgpConfig, seed: int, true_tau: float, rep: int):
    """Whether each variance's EPD interval covers ``true_tau`` on cohort
    ``rep``, and the smaller arm's ESS; None where the cohort fails as a
    study replication would."""
    try:
        data, truth = generate_cohort(dgp, seed=[seed, rep])
        sampling, propensity = fit_sampling_score(data), fit_propensity_score(data)
        outcome = fit_outcome_models(data, dgp.outcome_family)
        part = partition_population(data, sampling, propensity, truth.excluded[data.target_mask], P3_STAR)
        system = build_stacked_system(data, sampling, propensity, outcome, part)
        each, ess = variances(system)
    except (ExtvalError, np.linalg.LinAlgError):
        return None
    t1, t2, _ = _group_truths(truth.cate[data.target_mask], part.labels)
    v1, v2, v3 = system.xi[-3:].tolist()
    tau3 = v1 - v2 + v3
    covered = []
    for var in each:
        half = Z95 * float(np.sqrt(var))
        est = epd_estimate(SensitivityInput(tau3, (tau3 - half, tau3 + half), *part.p_hat, t1, t2))
        covered.append(est.ci_low <= true_tau <= est.ci_high)
    return covered, ess


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="*", metavar="CHECK=SEED",
                        default=[f"{name}={spec[3]}" for name, spec in CHECKS.items()])
    parser.add_argument("--cohorts", type=int, default=None)
    args = parser.parse_args(argv)
    print(" ".join(COLUMNS))
    for run in args.runs:
        name, seed = run.split("=")
        n_total, family, cohorts, _ = CHECKS[name]
        dgp = DgpConfig(n_total=n_total, outcome_family=family)
        task = partial(score, dgp, int(seed), true_tau_oracle(dgp))
        results = ordered_map(task, range(args.cohorts or cohorts), 2)
        good = [r for r in results if r is not None]
        rates = np.mean([covered for covered, _ in good], axis=0)
        ess = float(np.median([e for _, e in good]))
        print(name, int(seed), len(results), len(results) - len(good),
              *(f"{r:.3f}" for r in rates), f"{ess:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
