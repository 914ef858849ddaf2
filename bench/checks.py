"""Output checks, each computed apart from the program.

Every check recomputes what the program reports from the CSV values and
the documented formulas (or tests a property the method must have) with
plain numpy, and returns a list of complaints: empty means accepted. No
check compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

Z95 = 1.96
# The bootstrap SE must lie within this factor of the sandwich SE.
BOOTSTRAP_SE_FACTOR = 2.0
# Tolerances: the program stops Newton at a score max-norm of 1e-8; the
# recomputation here sums in another order, so the score and the normal
# equations are allowed rounding in proportion to the sums of |terms|.
SCORE_REL = 1e-10
ESTIMATE_REL = 1e-9
SHARE_TOL = 1e-6          # the threshold solver's tolerance on the mean weight
STUDY_ROUNDING = 5e-7     # half a unit in the study CSV's sixth decimal


@dataclass(frozen=True)
class Table:
    """The columns of a cohort CSV, as the program reads them."""

    s: np.ndarray
    a: np.ndarray
    y: np.ndarray
    x: np.ndarray          # with the leading constant column
    columns: dict          # every CSV column by name, NaN where empty

    @property
    def trial(self) -> np.ndarray:
        return self.s == 1

    @property
    def target(self) -> np.ndarray:
        return self.s == 0


def read_table(path, roles: dict) -> Table:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells = list(reader)
    columns = {}
    for j, name in enumerate(header):
        columns[name] = np.array([float(row[j]) if row[j] != "" else math.nan for row in cells])
    x = np.column_stack([np.ones(len(cells))] + [columns[c] for c in roles["covariates"]])
    return Table(columns[roles["s"]], columns[roles["a"]], columns[roles["y"]], x, columns)


def rule_mask(table: Table, rules: list, rows: np.ndarray) -> np.ndarray:
    """Rows (of the selected ones) that match any clause of the rules."""
    ops = {
        "==": np.equal, "!=": np.not_equal, ">=": np.greater_equal,
        "<=": np.less_equal, ">": np.greater, "<": np.less,
    }
    out = np.zeros(int(rows.sum()), dtype=bool)
    for clause in rules:
        m = np.ones_like(out)
        for pred in clause:
            m &= ops[pred["op"]](table.columns[pred["var"]][rows], pred["value"])
        out |= m
    return out


def _close(reported: float, expected: float, rel: float) -> bool:
    return abs(reported - expected) <= rel * (1.0 + abs(expected))


def _hajek(values, weights) -> float:
    return float(np.dot(weights, values) / np.sum(weights))


class _Complaints(list):
    def need(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def check_analyze(report: dict, table: Table, config: dict) -> list[str]:
    """Fits, partition, point estimates, SEs and CIs, and the extrapolations."""
    bad = _Complaints()
    trial, target = table.trial, table.target
    bad.need(report["n1"] == int(trial.sum()) and report["n2"] == int(target.sum()),
             "n1/n2 differ from the CSV's trial/target row counts")
    x, s = table.x, table.s
    a = np.where(trial, table.a, 0.0)
    y = np.where(trial, table.y, 0.0)

    # logistic fits: the score vanishes at the reported coefficients
    beta = np.array(report["sampling_model"]["coefficients"])
    gamma = np.array(report["propensity_model"]["coefficients"])
    for label, xs, resp, coef in (
        ("sampling", x, s, beta),
        ("propensity", x[trial], a[trial], gamma),
    ):
        score = xs.T @ (resp - expit(xs @ coef))
        tol = 1e-8 + SCORE_REL * np.abs(xs).sum(axis=0)
        bad.need(bool(np.all(np.abs(score) <= tol)),
                 f"{label} score does not vanish (max |score| {np.max(np.abs(score)):.3e})")

    # Gaussian outcome fits: the coefficients solve the normal equations
    thetas = {}
    for arm, key in ((1, "treated"), (0, "control")):
        theta = np.array(report["outcome_models"][key]["coefficients"])
        rows = trial & (table.a == arm)
        xa, ya = x[rows], y[rows]
        normal = xa.T @ (ya - xa @ theta)
        tol = 1e-8 + SCORE_REL * (np.abs(xa) * (1.0 + np.abs(ya))[:, None]).sum(axis=0)
        bad.need(bool(np.all(np.abs(normal) <= tol)),
                 f"{key} outcome coefficients do not solve the normal equations "
                 f"(max |X'r| {np.max(np.abs(normal)):.3e})")
        thetas[arm] = theta

    # the partition: exclusions by rule, shares at delta*
    part = report["partition"]
    delta, eps, p3_star = part["delta_star"], part["epsilon"], part["p3_star"]
    excluded = rule_mask(table, config["exclusion_rules"], target)
    hs = expit(x @ beta)
    e1 = expit(x @ gamma)
    k = ndtr((hs * e1 - delta) / eps) * ndtr((hs * (1.0 - e1) - delta) / eps)
    k[np.flatnonzero(target)[excluded]] = 0.0
    share = float(np.mean(k[target]))
    hs_t, e1_t = hs[target], e1[target]
    well = (hs_t * e1_t >= delta) & (hs_t * (1.0 - e1_t) >= delta) & ~excluded
    counts = [int(excluded.sum()), int((~excluded & ~well).sum()), int(well.sum())]
    bad.need(part["counts"][0] == counts[0],
             f"excluded count {part['counts'][0]} but {counts[0]} target rows match the rules")
    bad.need(list(part["counts"]) == counts, f"group counts {part['counts']} != {counts}")
    bad.need(abs(share - p3_star) <= SHARE_TOL,
             f"well-represented share at delta* is {share:.8f}, not p3*={p3_star}")
    p_hat = part["p_hat"]
    bad.need(_close(p_hat[0], counts[0] / target.sum(), 1e-12) and _close(p_hat[2], share, 1e-9)
             and abs(sum(p_hat) - 1.0) <= 1e-9, f"p_hat {p_hat} disagrees with the shares")

    # point estimates from the documented formulas
    base = np.where(trial, (1.0 - hs) / hs, 0.0)
    w1 = np.where(trial & (a == 1), base / e1, 0.0)
    w0 = np.where(trial & (a == 0), base / (1.0 - e1), 0.0)
    m1, m0 = x @ thetas[1], x @ thetas[0]
    resid = s * (y - a * m1 - (1.0 - a) * m0)
    expected = {
        ("ipw", False): _hajek(y, w1) - _hajek(y, w0),
        ("aipw", False): _hajek(resid, w1) - _hajek(resid, w0) + float(np.mean((m1 - m0)[target])),
        ("ipw", True): _hajek(y, k * w1) - _hajek(y, k * w0),
        ("aipw", True): _hajek(resid, k * w1) - _hajek(resid, k * w0) + _hajek(m1 - m0, k * (1.0 - s)),
    }
    tags = [f"{'trimmed_' if e['trimmed'] else ''}{e['method']}" for e in report["estimates"]]
    bad.need(tags == config["methods"], f"the report's estimates {tags} are not the configured methods")
    sandwich = config["variance"] == "sandwich"
    for tag, entry in zip(tags, report["estimates"]):
        want = expected[(entry["method"], entry["trimmed"])]
        bad.need(_close(entry["estimate"], want, ESTIMATE_REL),
                 f"{tag} estimate {entry['estimate']!r} but the formula gives {want!r}")
        se, (lo, hi) = entry["se"], entry["ci"]
        bad.need(se is not None and math.isfinite(se) and se > 0.0, f"{tag} SE {se!r} is not finite and positive")
        if sandwich and se is not None:
            bad.need(_close(lo, entry["estimate"] - Z95 * se, 1e-12)
                     and _close(hi, entry["estimate"] + Z95 * se, 1e-12),
                     f"{tag} CI {entry['ci']} is not the estimate +- 1.96 SE")
        elif not sandwich:
            bad.need(lo < hi, f"{tag} bootstrap CI {entry['ci']} is empty")

    # extrapolations over the unrepresented and underrepresented groups
    contrast = (m1 - m0)[target]
    zeta = report.get("zeta", {})
    for label, group in (("zeta1", excluded), ("zeta2", ~excluded & ~well)):
        want = float(np.mean(contrast[group]))
        bad.need(label in zeta and _close(zeta[label], want, ESTIMATE_REL),
                 f"{label} {zeta.get(label)!r} but the group mean contrast is {want!r}")
    return bad


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def check_epd_grid(grid_csv: str, report: dict, config: dict) -> list[str]:
    """One row per (k1, k2) with the EPD formula and its CI."""
    bad = _Complaints()
    sens = config["sensitivity"]
    entry = next(e for e in report["estimates"] if e["method"] == sens["method"] and e["trimmed"])
    p1, p2, p3 = report["partition"]["p_hat"]
    z1, z2 = report["zeta"]["zeta1"], report["zeta"]["zeta2"]
    tau3, se = entry["estimate"], entry["se"]
    k1s = sorted(set(sens["k1_grid"]) | {1.0})
    k2s = sorted(set(sens["k2_grid"]) | {1.0})
    rows = list(csv.DictReader(io.StringIO(grid_csv)))
    seen = sorted((float(r["k1"]), float(r["k2"])) for r in rows)
    bad.need(seen == [(k1, k2) for k1 in k1s for k2 in k2s],
             f"grid has {len(rows)} rows, not one per (k1, k2) of the {len(k1s)}x{len(k2s)} lattice")
    for r in rows:
        k1, k2 = float(r["k1"]), float(r["k2"])
        shift = p1 * k1 * z1 + p2 * k2 * z2
        want = shift + p3 * tau3
        bad.need(r["assumption"] == "epd", f"grid row assumption {r['assumption']!r}")
        bad.need(_close(float(r["tau_hat"]), want, 1e-12),
                 f"grid row ({k1}, {k2}): tau_hat {r['tau_hat']} but p1 k1 z1 + p2 k2 z2 + p3* tau3 = {want!r}")
        bad.need(_close(float(r["ci_low"]), shift + p3 * (tau3 - Z95 * se), 1e-12)
                 and _close(float(r["ci_high"]), shift + p3 * (tau3 + Z95 * se), 1e-12),
                 f"grid row ({k1}, {k2}): CI is not p3* times tau3's CI shifted")
    return bad


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def check_bootstrap(report: dict, sandwich_report: dict) -> list[str]:
    """The bootstrap run against a sandwich run on the same CSV."""
    bad = _Complaints()
    for boot, ref in zip(report["estimates"], sandwich_report["estimates"]):
        bad.need(boot["variance_method"] == "bootstrap", "estimate is not a bootstrap estimate")
        bad.need(_close(boot["estimate"], ref["estimate"], 1e-12),
                 f"bootstrap estimate {boot['estimate']!r} != sandwich run's {ref['estimate']!r}")
        ratio = boot["se"] / ref["se"]
        bad.need(1.0 / BOOTSTRAP_SE_FACTOR <= ratio <= BOOTSTRAP_SE_FACTOR,
                 f"bootstrap SE / sandwich SE = {ratio:.3f}, outside a factor of {BOOTSTRAP_SE_FACTOR}")
    return bad


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def check_study(study_csv: str, config: dict) -> list[str]:
    """One row per cell; coverage in steps of 1/R; mse = bias^2 + sd^2 (R-1)/R."""
    bad = _Complaints()
    reps = config["replications"]
    rows = list(csv.DictReader(io.StringIO(study_csv)))
    cells = [(p, m.upper(), a.upper()) for p in config["p3_star"]
             for m in config["methods"] for a in config["assumptions"]]
    got = [(float(r["proportion"]), r["method"], r["assumption"]) for r in rows]
    bad.need(got == cells, f"study rows {got} are not one per (p3*, method, assumption) cell")
    for r in rows:
        cell = f"({r['proportion']}, {r['method']}, {r['assumption']})"
        bias, mse, sd, cov = (float(r[c]) for c in ("bias", "mse", "sd", "coverage"))
        bad.need(all(math.isfinite(v) for v in (bias, mse, sd, cov)) and sd >= 0.0,
                 f"cell {cell}: non-finite or negative figures")
        bad.need(int(r["trial_size"]) > 0 and int(r["target_size"]) > 0, f"cell {cell}: empty sizes")
        hits = cov * reps
        bad.need(abs(hits - round(hits)) <= STUDY_ROUNDING * reps + 1e-12 and 0 <= round(hits) <= reps,
                 f"cell {cell}: coverage {cov} is not a multiple of 1/{reps}")
        want = bias ** 2 + sd ** 2 * (reps - 1) / reps
        tol = STUDY_ROUNDING * (1.0 + 2.0 * abs(bias) + 2.0 * sd) + 1e-12
        bad.need(abs(mse - want) <= tol,
                 f"cell {cell}: mse {mse} but bias^2 + sd^2 (R-1)/R = {want:.7f}")
    return bad
