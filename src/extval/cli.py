"""Batch command-line interface.

Subcommands: ``analyze`` (fit, partition, estimate), ``sensitivity``
(grid sweep from an analysis report), ``simulate`` (replication study),
and ``calibrate`` (participation-intercept solver). Configuration is
JSON with ``"schema_version": 1``; tabular outputs are CSV. All
randomness flows from explicit seeds in the configuration; a missing
seed where one is needed is a configuration error, never a silent
clock seed.

``load_dataset`` returns the dataset and the CSV's columns by name.
Exclusion rules (``exclusion_rules``) and the extrapolation filters
(``sensitivity.extrapolation.r{1,2}_trial_filter``) are clause lists
over those named columns, evaluated column-wise by
``evaluate_raw_rules``; the partition receives the resulting target-row
mask. Each method name maps to its estimator in one table, which serves
both the full-sample estimate and every bootstrap replicate.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, ExtvalError
from .estimators import (
    EstimateReport,
    augmented_ipw,
    bootstrap_ci,
    hajek_ipw,
    trimmed_aipw,
    trimmed_ipw,
)
from .glm import (
    GlmFamily,
    GlmFit,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    predict_mean,
)
from .partition import partition_population
from .sensitivity import (
    SensitivityInput,
    extrapolate_group_ate,
    sensitivity_sweep,
)
from .simulation import DgpConfig, StudyConfig, calibrate_intercept, run_study

_FAMILIES = {
    "gaussian": GlmFamily.GAUSSIAN_IDENTITY,
    "binary": GlmFamily.BERNOULLI_LOGIT,
}

# method name -> its estimator, called with the dataset, the sampling,
# propensity and outcome fits, the partition and the variance method. The
# lambdas look the estimator names up at call time, so a wrapper bound
# over a module name (as bench/tracing.py binds them) sees every call.
_METHODS = {
    "ipw": lambda ds, sf, pf, of, part, v: hajek_ipw(ds, sf, pf, variance=v),
    "aipw": lambda ds, sf, pf, of, part, v: augmented_ipw(ds, sf, pf, of, variance=v),
    "trimmed_ipw": lambda ds, sf, pf, of, part, v: trimmed_ipw(ds, sf, pf, part, variance=v),
    "trimmed_aipw": lambda ds, sf, pf, of, part, v: trimmed_aipw(ds, sf, pf, of, part, variance=v),
}


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

def load_dataset(path: str, roles: dict) -> tuple[Dataset, dict[str, tuple[str, ...]]]:
    """Parse a CSV into a Dataset, prepending the constant-1 column.

    ``roles`` maps {"s": column, "a": column, "y": column,
    "covariates": [columns...]}. Treatment and outcome cells must be
    empty exactly on target rows; anything else is a role
    misassignment. Returns the dataset and every CSV column by name (a
    tuple of its cells, one per data row) so that exclusion rules may
    reference non-model columns. Blank lines are skipped; every other
    row must have as many fields as the header.
    """
    for key in ("s", "a", "y", "covariates"):
        if key not in roles:
            raise ConfigError(f"column roles must include {key!r}")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: missing header row")
    needed = [roles["s"], roles["a"], roles["y"], *roles["covariates"]]
    missing = [c for c in needed if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    ragged = [len(row) != len(header) for row in rows]
    _fail_at(path, ragged, f"the header has {len(header)} fields")
    columns = dict(zip(header, zip(*rows)))
    del rows

    flags = [c.strip() for c in columns[roles["s"]]]
    _fail_at(path, [f not in ("0", "1") for f in flags], "participation flag must be 0 or 1")
    trial = np.array([f == "1" for f in flags])
    has_a = np.array([bool(c.strip()) for c in columns[roles["a"]]])
    has_y = np.array([bool(c.strip()) for c in columns[roles["y"]]])
    _fail_at(path, trial & ~(has_a & has_y), "trial row lacks treatment or outcome")
    _fail_at(
        path, ~trial & (has_a | has_y),
        "treatment/outcome present on a target row; check the column role assignment",
    )
    x = np.empty((trial.size, len(roles["covariates"]) + 1))
    x[:, 0] = 1.0
    for j, col in enumerate(roles["covariates"]):
        _fail_at(path, [not c.strip() for c in columns[col]], f"empty covariate {col!r}")
        x[:, j + 1] = _floats(columns[col], col, path)
    a = _floats(columns[roles["a"]], roles["a"], path)
    y = _floats(columns[roles["y"]], roles["y"], path)
    return Dataset(s=trial.astype(float), a=a, y=y, x=x), columns


def _fail_at(path: str, bad, message: str):
    """DataError naming the first data row flagged in ``bad``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise DataError(f"{path} row {rows[0] + 2}: {message}")


def _floats(cells, col: str, where: str, rows=None) -> np.ndarray:
    """CSV cells as floats, empty cells as NaN. ``rows`` are the cells'
    data-row numbers (all rows in order by default), for the error."""
    out = []
    for i, cell in enumerate(cells):
        cell = cell.strip()
        try:
            out.append(float(cell) if cell else np.nan)
        except ValueError:
            row = i if rows is None else rows[i]
            raise DataError(
                f"{where} row {row + 2}: non-numeric value {cell!r} in column {col!r}"
            ) from None
    return np.array(out)


# ---------------------------------------------------------------------------
# exclusion rules over named CSV columns
# ---------------------------------------------------------------------------

_COMPARATORS = {
    "==": np.equal,
    "!=": np.not_equal,
    ">=": np.greater_equal,
    "<=": np.less_equal,
    ">": np.greater,
    "<": np.less,
    "in": np.isin,
}


def evaluate_raw_rules(rules: list, columns: dict, mask_rows) -> np.ndarray:
    """Evaluate clause lists on the rows ``mask_rows`` selects.

    ``columns`` maps CSV column names to their cells, as ``load_dataset``
    returns them. Each clause is a list of {"var": column name, "op":
    comparator, "value": number, or a list of numbers for "in"}; a row
    matches when every predicate of at least one clause holds. Cells
    compare numerically and an empty cell reads as NaN, which satisfies
    only "!=". An unknown column or comparator, or a value of the wrong
    type, is a ConfigError; a non-numeric cell in a selected row of a
    rule column is a DataError.
    """
    rows = np.flatnonzero(mask_rows)
    values: dict[str, np.ndarray] = {}
    out = np.zeros(rows.size, dtype=bool)
    for clause in rules:
        match = np.ones(rows.size, dtype=bool)
        for pred in clause:
            if not isinstance(pred, dict):
                raise ConfigError(f"exclusion rule predicate {pred!r} is not an object")
            var, op, value = pred.get("var"), pred.get("op"), pred.get("value")
            if op not in _COMPARATORS:
                raise ConfigError(f"unknown comparator {op!r} in exclusion rule")
            if var not in columns:
                raise ConfigError(f"exclusion rule references unknown column {var!r}")
            constant = _rule_constant(var, op, value)
            if var not in values:
                values[var] = _floats([columns[var][i] for i in rows], var, "CSV", rows)
            match &= _COMPARATORS[op](values[var], constant)
        out |= match
    return out


def _rule_constant(var: str, op: str, value) -> np.ndarray:
    """A predicate's constant: a number, or for "in" a list of numbers."""
    items = value if op == "in" and isinstance(value, list) else [value]
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items)
    if not numeric or (op == "in") != isinstance(value, list):
        kind = "a list of numbers" if op == "in" else "a number"
        raise ConfigError(f"exclusion rule {var!r} {op} needs {kind}, got {value!r}")
    return np.asarray(value, dtype=float)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing {key!r}")
    return config[key]


def _check_schema(config: dict):
    if config.get("schema_version") != 1:
        raise ConfigError("config must declare \"schema_version\": 1")


def _score_histogram(hs: np.ndarray, s: np.ndarray, bins: int = 30) -> dict:
    edges = np.linspace(0.0, float(hs.max()) + 1e-12, bins + 1)
    trial, _ = np.histogram(hs[s == 1], bins=edges)
    target, _ = np.histogram(hs[s == 0], bins=edges)
    return {
        "bin_edges": edges.tolist(),
        "trial_counts": trial.tolist(),
        "target_counts": target.tolist(),
    }


def _fit_summary(fit: GlmFit) -> dict:
    return {
        "coefficients": np.asarray(fit.coefficients).tolist(),
        "family": fit.family.value,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "log_likelihood": fit.log_likelihood,
        "fixed": fit.fixed,
    }


def _stage(label: str):
    class _Stage:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, ExtvalError):
                exc.args = (f"{label}: {exc.args[0]}" if exc.args else label,)
            return False

    return _Stage()


def cmd_analyze(config: dict) -> dict:
    """Run the fit / partition / estimate pipeline, returning the report."""
    _check_schema(config)
    data, columns = load_dataset(_require(config, "input"), _require(config, "roles"))
    family = _family(config.get("outcome_family", "gaussian"))
    methods = config.get("methods", ["trimmed_aipw"])
    for m in methods:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {tuple(_METHODS)}")
    variance_method = config.get("variance", "sandwich")
    if variance_method not in ("sandwich", "bootstrap"):
        raise ConfigError("variance must be 'sandwich' or 'bootstrap'")
    p3_star = config.get("p3_star")
    epsilon = float(config.get("epsilon", 1e-8))
    needs_partition = any(m.startswith("trimmed") for m in methods)
    if needs_partition and p3_star is None:
        raise ConfigError("trimmed methods require p3_star")
    if p3_star is not None and not 0.0 < p3_star <= 1.0:
        raise ConfigError("p3_star must lie in (0, 1]")
    seed = config.get("seed")
    if variance_method == "bootstrap" and seed is None:
        raise ConfigError("bootstrap variance requires an explicit seed")

    r1_mask = None
    if config.get("exclusion_rules"):
        r1_mask = evaluate_raw_rules(config["exclusion_rules"], columns, data.target_mask)
    sampling, propensity, outcome, partition = _fit_components(
        data, config, family, any("aipw" in m for m in methods), r1_mask, needs_partition
    )

    report: dict = {
        "schema_version": 1,
        "input": config["input"],
        "n1": data.n1,
        "n2": data.n2,
        "q": data.q,
        "sampling_model": _fit_summary(sampling),
        "propensity_model": _fit_summary(propensity),
        "sampling_score_histogram": _score_histogram(
            predict_mean(sampling, data.x), data.s
        ),
        "estimates": [],
    }
    if outcome is not None:
        report["outcome_models"] = {
            "treated": _fit_summary(outcome[0]),
            "control": _fit_summary(outcome[1]),
        }
    if partition is not None:
        report["partition"] = {
            "delta_star": partition.delta_star,
            "p_hat": list(partition.p_hat),
            "counts": list(partition.counts),
            "p3_star": p3_star,
            "epsilon": epsilon,
        }

    with _stage("estimate"):
        for m in methods:
            report["estimates"].append(
                _run_method(
                    m, data, (sampling, propensity, outcome, partition),
                    variance_method, config, family, r1_mask,
                ).to_dict()
            )

    if outcome is not None and partition is not None:
        zeta = _extrapolations(config, data, columns, family, outcome, partition)
        if zeta is not None:
            report["zeta"] = zeta
    return report


def _family(name: str) -> GlmFamily:
    if name not in _FAMILIES:
        raise ConfigError(f"unknown outcome family {name!r}; choose gaussian or binary")
    return _FAMILIES[name]


def _fit_components(data, config, family, outcome: bool, r1_mask, trimmed: bool):
    """Sampling, propensity and (if ``outcome``) outcome fits, and the
    partition (if ``trimmed``) at the configured p3* and epsilon."""
    with _stage("fit"):
        sampling = fit_sampling_score(data)
        propensity = fit_propensity_score(data, known_probability=config.get("known_propensity"))
        fits = fit_outcome_models(data, family) if outcome else None
    partition = None
    if trimmed:
        with _stage("partition"):
            partition = partition_population(
                data, sampling, propensity, r1_mask,
                config["p3_star"], float(config.get("epsilon", 1e-8)),
            )
    return sampling, propensity, fits, partition


def _run_method(
    method, data, components, variance_method, config, family, r1_mask,
) -> EstimateReport:
    """One method's report; ``components`` are the full-sample fits and
    partition. A bootstrap refits them on every replicate."""
    run = _METHODS[method]
    rep = run(data, *components, "sandwich" if variance_method == "sandwich" else "none")
    if variance_method != "bootstrap":
        return rep

    def point(ds: Dataset, mask):
        trimmed = method.startswith("trimmed")
        refit = _fit_components(ds, config, family, "aipw" in method, mask, trimmed)
        return run(ds, *refit, "none").estimate

    reps = int(config.get("bootstrap_reps", 500))
    var, lo, hi = bootstrap_ci(point, data, reps, int(config["seed"]), r1_mask=r1_mask)
    return dataclasses.replace(
        rep, variance=var, ci_low=lo, ci_high=hi, variance_method="bootstrap"
    )


def _extrapolations(config, data, columns, family, outcome, partition):
    """Group extrapolations for EPD; surrogate-stratum refits optional."""
    sens = config.get("sensitivity", {})
    filters = sens.get("extrapolation", {}) if isinstance(sens, dict) else {}
    x_target = data.x[data.target_mask]
    zeta = {}
    for group, label in ((1, "zeta1"), (2, "zeta2")):
        rows = x_target[partition.labels == group]
        if rows.shape[0] == 0:
            return None
        fits = outcome
        filt = filters.get(f"r{group}_trial_filter")
        if filt:
            trial_mask = evaluate_raw_rules(filt, columns, data.trial_mask)
            idx = np.flatnonzero(data.trial_mask)[trial_mask]
            if idx.size == 0:
                raise DataError(f"extrapolation filter for group {group} matches no trial rows")
            fits = fit_outcome_models(data.subset(idx), family)
        zeta[label] = extrapolate_group_ate(fits, rows)
    return zeta


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def cmd_sensitivity(config: dict, report: dict) -> str:
    """Sweep (k1, k2) for the configured assumption; returns grid CSV."""
    _check_schema(config)
    sens = _require(config, "sensitivity")
    assumption = _require(sens, "assumption")
    method = sens.get("method", "aipw")
    entry = next(
        (e for e in report.get("estimates", []) if e["method"] == method and e["trimmed"]),
        None,
    )
    if entry is None:
        raise ConfigError(
            f"analysis report has no trimmed {method} estimate; rerun analyze "
            "with the matching method"
        )
    part = report.get("partition")
    if part is None:
        raise ConfigError("analysis report carries no partition block")
    zeta = report.get("zeta", {})
    inp = SensitivityInput(
        tau3=entry["estimate"],
        tau3_variance=entry["se"] ** 2,
        p1=part["p_hat"][0],
        p2=part["p_hat"][1],
        p3_star=part["p_hat"][2],
        zeta1=zeta.get("zeta1"),
        zeta2=zeta.get("zeta2"),
    )
    k1_grid = list(sens.get("k1_grid", [1.0]))
    k2_grid = list(sens.get("k2_grid", [1.0]))
    if 1.0 not in k1_grid:
        k1_grid.append(1.0)
    if 1.0 not in k2_grid:
        k2_grid.append(1.0)
    grid = sensitivity_sweep(inp, k1_grid, k2_grid, assumption)
    baseline = next(r for r in grid.rows if r.k1 == 1.0 and r.k2 == 1.0)
    print(
        f"baseline k1=k2=1 ({assumption.upper()}): tau={baseline.estimate:.6f} "
        f"ci=[{baseline.ci_low:.6f}, {baseline.ci_high:.6f}]",
        file=sys.stderr,
    )
    return grid.to_csv()


# ---------------------------------------------------------------------------
# simulate / calibrate
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, threads: int = 1) -> str:
    """Run the replication study; returns the report CSV."""
    _check_schema(config)
    if "seed" not in config:
        raise ConfigError("simulate requires an explicit seed")
    family = _family(config.get("outcome_family", "gaussian"))
    sizes = config.get("sizes", [100_000])
    chunks = []
    for n_total in sizes:
        dgp = DgpConfig(n_total=int(n_total), outcome_family=family)
        study = StudyConfig(
            dgp=dgp,
            replications=int(config.get("replications", 1000)),
            p3_stars=tuple(config.get("p3_star", [0.8, 0.9])),
            methods=tuple(config.get("methods", ["ipw", "aipw"])),
            assumptions=tuple(config.get("assumptions", ["gpd", "epd"])),
            master_seed=int(config["seed"]),
            oracle_draws=int(config.get("oracle_draws", 4_000_000)),
        )
        csv_text = run_study(study, n_jobs=max(1, threads)).to_csv()
        chunks.append(csv_text if not chunks else "".join(csv_text.splitlines(True)[1:]))
    return "".join(chunks)


def cmd_calibrate(args) -> dict:
    slopes = [float(v) for v in args.slopes.split(",")]
    config = DgpConfig(
        beta=(0.0, *slopes),
        theta0=(0.0,) * (len(slopes) + 1),
        theta1=(0.0,) * (len(slopes) + 1),
        e_prob=args.e_prob,
        exclusions=not args.no_exclusions,
        x4_cut=args.x4_cut,
    )
    from .simulation import dgp_covariate_sampler

    intercept = calibrate_intercept(
        slopes,
        args.target,
        covariate_sampler=dgp_covariate_sampler(config),
        mc_draws=args.draws,
        seed=args.seed,
    )
    return {"intercept": intercept, "target_prob": args.target, "slopes": slopes}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extval",
        description="Transport trial treatment effects to an external "
        "target population under positivity violations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fit scores, partition the target, estimate effects")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="report JSON path (default stdout)")

    p = sub.add_parser("sensitivity", help="sweep sensitivity parameters from a report")
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True, help="analysis report JSON")
    p.add_argument("--output", default=None, help="grid CSV path (default stdout)")

    p = sub.add_parser("simulate", help="run the replication study")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="study CSV path (default stdout)")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("calibrate", help="solve the participation-model intercept")
    p.add_argument("--slopes", required=True, help="comma-separated non-intercept slopes")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--draws", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--e-prob", type=float, default=0.01)
    p.add_argument("--x4-cut", type=float, default=3.0)
    p.add_argument("--no-exclusions", action="store_true")
    p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            report = cmd_analyze(_read_json(args.config))
            _write_text(args.output, json.dumps(report, indent=2) + "\n")
        elif args.command == "sensitivity":
            text = cmd_sensitivity(_read_json(args.config), _read_json(args.report))
            _write_text(args.output, text)
        elif args.command == "simulate":
            text = cmd_simulate(_read_json(args.config), threads=args.threads)
            _write_text(args.output, text)
        elif args.command == "calibrate":
            result = cmd_calibrate(args)
            _write_text(args.output, json.dumps(result, indent=2) + "\n")
    except ExtvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
