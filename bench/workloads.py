"""The three workloads: their inputs, the ``extval`` calls that make one
operation, and the checks of that operation's outputs.

Every input is a function of the workload's size and the run's ``--seed``
alone. Cohorts come from the package's own generating process
(``extval.simulation.generate_cohort``); the CSV holds every value with
all its digits, so the checks recompute the program's arithmetic from the
very numbers the program parsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

CSV_COLUMNS = ("s", "a", "y", "x1", "x2", "x3", "x4", "ineligible")
ROLES = {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2", "x3", "x4"]}
# The generating process's hard exclusion, stated over named CSV columns:
# the rare eligibility flag (not a model covariate), or x4 at its cut.
EXCLUSION_RULES = [
    [{"var": "ineligible", "op": "==", "value": 1}],
    [{"var": "x4", "op": ">=", "value": 3.0}],
]
K_GRID = [0.5, 1.0, 1.5, 2.0]


@dataclass(frozen=True)
class Size:
    """How big one operation of a workload is."""

    n_total: int              # superpopulation size handed to DgpConfig
    cohorts: int = 1          # cohorts analysed per operation (analyze-bootstrap)
    bootstrap_reps: int = 0
    replications: int = 0
    oracle_draws: int = 0


FULL = {
    "analyze-registry": Size(n_total=300_000),
    "analyze-bootstrap": Size(n_total=50_000, cohorts=2, bootstrap_reps=100),
    "simulate-binary": Size(n_total=100_000, replications=3, oracle_draws=1_000_000),
}
# The self-test's sizes: every path of FULL, in a second or two each.
SMALL = {
    "analyze-registry": Size(n_total=20_000),
    "analyze-bootstrap": Size(n_total=50_000, cohorts=2, bootstrap_reps=100),
    "simulate-binary": Size(n_total=20_000, replications=2, oracle_draws=100_000),
}
WORKLOADS = tuple(FULL)


@dataclass
class Prepared:
    """One workload's inputs, ready to run.

    ``steps`` are the argument lists of the ``extval.cli.main`` calls that
    make one operation; ``{op}`` in them stands for the operation number.
    ``outputs(op)`` names the files an operation writes, and ``check``
    takes their texts and returns the complaints about them. ``probe`` is
    the kind of speed probe (``calibrate.probe``) that runs between the
    operations.
    """

    steps: list[list[str]]
    outputs: Callable[[int], list[Path]]
    check: Callable[[list[str]], list[str]]
    probe: str


def write_cohort_csv(path: Path, n_total: int, seed) -> None:
    """Draw a Gaussian-outcome cohort and write it as an eight-column CSV."""
    from extval.simulation import DgpConfig, generate_cohort

    data, truth = generate_cohort(DgpConfig(n_total=n_total), seed)
    trial = data.trial_mask
    flag = truth.e_flag.astype(int)
    lines = [",".join(CSV_COLUMNS)]
    for i in range(data.n):
        x1, x2, x3, x4 = (repr(float(v)) for v in data.x[i, 1:])
        ay = f"{int(data.a[i])},{float(data.y[i])!r}" if trial[i] else ","
        lines.append(f"{int(data.s[i])},{ay},{x1},{x2},{x3},{x4},{flag[i]}")
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


def analyze_config(csv_path: Path, **overrides) -> dict:
    config = {
        "schema_version": 1,
        "input": str(csv_path),
        "roles": ROLES,
        "outcome_family": "gaussian",
        "p3_star": 0.8,
        "epsilon": 1e-8,
        "exclusion_rules": EXCLUSION_RULES,
        "methods": ["ipw", "aipw", "trimmed_ipw", "trimmed_aipw"],
        "variance": "sandwich",
        "sensitivity": {"assumption": "epd", "method": "aipw", "k1_grid": K_GRID, "k2_grid": K_GRID},
    }
    config.update(overrides)
    return config


def prepare(workload: str, seed: int, size: Size, run_dir: Path) -> Prepared:
    """Write the workload's inputs into ``run_dir`` and describe its operation."""
    cohort_seed = [seed, WORKLOADS.index(workload)]
    if workload == "simulate-binary":
        config = {
            "schema_version": 1,
            "seed": seed,
            "outcome_family": "binary",
            "sizes": [size.n_total],
            "replications": size.replications,
            "p3_star": [0.8, 0.9],
            "methods": ["ipw", "aipw"],
            "assumptions": ["gpd", "epd"],
            "oracle_draws": size.oracle_draws,
        }
        cfg = _write_json(run_dir / "config.json", config)
        study = run_dir / "study-{op}.csv"
        return Prepared(
            steps=[["simulate", "--config", cfg, "--output", str(study)]],
            outputs=lambda op: [Path(str(study).format(op=op))],
            check=lambda texts: checks.check_study(texts[0], config),
            probe="cached",
        )

    if workload == "analyze-registry":
        csv_path = run_dir / "cohort.csv"
        write_cohort_csv(csv_path, size.n_total, cohort_seed)
        table = checks.read_table(csv_path, ROLES)
        report = run_dir / "report-{op}.json"
        config = analyze_config(csv_path)
        cfg = _write_json(run_dir / "config.json", config)
        grid = run_dir / "grid-{op}.csv"

        def check_registry(texts):
            rep = json.loads(texts[0])
            return checks.check_analyze(rep, table, config) + checks.check_epd_grid(texts[1], rep, config)

        return Prepared(
            steps=[
                ["analyze", "--config", cfg, "--output", str(report)],
                ["sensitivity", "--config", cfg, "--report", str(report), "--output", str(grid)],
            ],
            outputs=lambda op: [Path(str(p).format(op=op)) for p in (report, grid)],
            check=check_registry,
            probe="stream",
        )

    if workload != "analyze-bootstrap":
        raise ValueError(f"unknown workload {workload!r}")
    # One operation bootstraps each of several cohorts in turn, so that its
    # time is an average over inputs: the threshold solver stops early on
    # about one cohort in five (where p3* times the target count is whole),
    # and is then about a quarter cheaper.
    from extval.cli import cmd_analyze
    steps, reports, judges = [], [], []
    for j in range(size.cohorts):
        csv_j = run_dir / f"cohort-{j}.csv"
        write_cohort_csv(csv_j, size.n_total, cohort_seed + [j])
        config = analyze_config(
            csv_j, methods=["trimmed_aipw"], variance="bootstrap",
            bootstrap_reps=size.bootstrap_reps, seed=seed,
        )
        cfg = _write_json(run_dir / f"config-{j}.json", config)
        report_j = run_dir / f"report-{j}-{{op}}.json"
        steps.append(["analyze", "--config", cfg, "--output", str(report_j)])
        reports.append(report_j)
        # The sandwich run on the same CSV that the bootstrap is judged against.
        judges.append((checks.read_table(csv_j, ROLES), config, cmd_analyze(dict(config, variance="sandwich"))))

    def check_bootstrap(texts):
        complaints = []
        for j, (text, (table_j, config_j, reference)) in enumerate(zip(texts, judges)):
            rep = json.loads(text)
            complaints += [f"cohort {j}: {c}" for c in
                           checks.check_analyze(rep, table_j, config_j) + checks.check_bootstrap(rep, reference)]
        return complaints

    return Prepared(
        steps=steps,
        outputs=lambda op: [Path(str(p).format(op=op)) for p in reports],
        check=check_bootstrap,
        probe="loop",
    )
