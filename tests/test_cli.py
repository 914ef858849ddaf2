import csv
import json

import numpy as np
import pytest

from extval import (
    GlmFamily,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    partition_population,
    trimmed_aipw,
)
from extval.cli import cmd_analyze, cmd_sensitivity, evaluate_raw_rules, load_dataset, main


def _write_fixture(path, n1=120, n2=300, seed=91, flag_share=0.05):
    """Synthetic analyst export: pre-encoded indicators, one rule column."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n1 + n2):
        trial = i < n1
        x1 = rng.standard_normal() + (0.6 if trial else 0.0)
        x2 = rng.standard_normal()
        flag = 0 if trial else int(rng.random() < flag_share)
        row = {
            "selected": int(trial),
            "treat": "",
            "outcome": "",
            "x1": f"{x1:.6f}",
            "x2": f"{x2:.6f}",
            "ineligible": flag,
        }
        if trial:
            a = int(rng.random() < 0.5)
            y = 1.0 + x1 - x2 + a * (0.8 + 0.3 * x1) + rng.standard_normal()
            row["treat"] = a
            row["outcome"] = f"{y:.6f}"
        rows.append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _config(input_path, **overrides):
    cfg = {
        "schema_version": 1,
        "input": str(input_path),
        "roles": {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1", "x2"]},
        "outcome_family": "gaussian",
        "p3_star": 0.9,
        "epsilon": 1e-8,
        "exclusion_rules": [[{"var": "ineligible", "op": "==", "value": 1}]],
        "methods": ["trimmed_ipw", "trimmed_aipw"],
        "variance": "sandwich",
        "seed": 17,
        "sensitivity": {
            "assumption": "gpd",
            "method": "aipw",
            "k1_grid": [-2.0, 0.0, 1.0, 2.0],
            "k2_grid": [-2.0, 1.0],
        },
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture()
def fixture_csv(tmp_path):
    return _write_fixture(tmp_path / "cohort.csv")


def test_load_dataset_roles(fixture_csv):
    data, columns = load_dataset(str(fixture_csv), {
        "s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1", "x2"],
    })
    assert data.n1 == 120 and data.n2 == 300
    assert data.q == 3          # intercept prepended
    assert np.all(data.x[:, 0] == 1.0)
    assert set(columns) == {"selected", "treat", "outcome", "x1", "x2", "ineligible"}
    assert all(len(cells) == 420 for cells in columns.values())
    assert np.array_equal(data.x[:, 1], [float(c) for c in columns["x1"]])


def test_load_dataset_rejects_outcome_on_target_row(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("selected,treat,outcome,x1\n1,1,2.0,0.1\n0,,1.5,0.2\n")
    with pytest.raises(Exception) as exc:
        load_dataset(str(path), {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1"]})
    assert "role" in str(exc.value)


def test_load_dataset_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("selected,treat,outcome\n1,1,2.0\n")
    with pytest.raises(Exception) as exc:
        load_dataset(str(path), {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x9"]})
    assert "missing columns" in str(exc.value)


def test_load_dataset_wide_indicator_file(tmp_path):
    # registry-style export: many pre-encoded 0/1 indicator columns
    rng = np.random.default_rng(3)
    cols = ["age_18_24", "age_25_34", "age_35_49", "male", "race_b", "race_h",
            "inject", "alcohol"]
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "y", *cols])
        for i in range(40):
            trial = i < 15
            ind = (rng.random(len(cols)) < 0.3).astype(int).tolist()
            if trial:
                writer.writerow([1, int(rng.random() < 0.5), round(rng.random(), 4), *ind])
            else:
                writer.writerow([0, "", "", *ind])
    data, _ = load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": cols})
    assert data.q == 1 + len(cols)
    assert set(np.unique(data.x[:, 1:])) <= {0.0, 1.0}


def test_load_dataset_non_numeric_covariate(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("selected,treat,outcome,x1\n1,1,2.0,abc\n0,,,0.2\n")
    with pytest.raises(Exception) as exc:
        load_dataset(str(path), {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1"]})
    assert "non-numeric" in str(exc.value)


def test_analyze_report_contents(fixture_csv):
    report = cmd_analyze(_config(fixture_csv))
    assert report["n1"] == 120 and report["n2"] == 300
    part = report["partition"]
    assert sum(part["p_hat"]) == pytest.approx(1.0, abs=1e-9)
    assert part["p_hat"][2] == pytest.approx(0.9, abs=1e-6)
    hist = report["sampling_score_histogram"]
    assert sum(hist["trial_counts"]) == 120
    assert sum(hist["target_counts"]) == 300
    methods = {(e["method"], e["trimmed"]) for e in report["estimates"]}
    assert methods == {("ipw", True), ("aipw", True)}
    assert "zeta1" in report["zeta"] and "zeta2" in report["zeta"]


def test_analyze_matches_library_exactly(fixture_csv):
    report = cmd_analyze(_config(fixture_csv))
    data, columns = load_dataset(str(fixture_csv), {
        "s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1", "x2"],
    })
    flags = np.array([float(c) for c in columns["ineligible"]])[data.target_mask]
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GlmFamily.GAUSSIAN_IDENTITY)
    part = partition_population(data, sampling, propensity, flags == 1.0, 0.9)
    rep = trimmed_aipw(data, sampling, propensity, outcome, part)
    entry = next(e for e in report["estimates"] if e["method"] == "aipw")
    assert entry["estimate"] == rep.estimate
    assert entry["se"] == rep.se
    assert entry["ci"] == [rep.ci_low, rep.ci_high]
    assert entry["delta_star"] == part.delta_star


def test_analyze_full_share_trimmed_equals_untrimmed(fixture_csv):
    cfg = _config(fixture_csv, p3_star=1.0, exclusion_rules=[],
                  methods=["aipw", "trimmed_aipw"])
    report = cmd_analyze(cfg)
    est = {e["trimmed"]: e["estimate"] for e in report["estimates"]}
    assert abs(est[True] - est[False]) <= 1e-9


def test_analyze_bootstrap_variance(fixture_csv):
    cfg = _config(fixture_csv, variance="bootstrap", bootstrap_reps=120,
                  methods=["trimmed_aipw"])
    report = cmd_analyze(cfg)
    entry = report["estimates"][0]
    assert entry["variance_method"] == "bootstrap"
    assert entry["ci"][0] < entry["estimate"] < entry["ci"][1]


def test_bootstrap_requires_seed(fixture_csv):
    cfg = _config(fixture_csv, variance="bootstrap")
    del cfg["seed"]
    with pytest.raises(Exception) as exc:
        cmd_analyze(cfg)
    assert "seed" in str(exc.value)


def test_sensitivity_grid_csv(fixture_csv):
    cfg = _config(fixture_csv)
    report = cmd_analyze(cfg)
    text = cmd_sensitivity(cfg, report)
    lines = text.strip().splitlines()
    assert lines[0] == "k1,k2,assumption,tau_hat,ci_low,ci_high"
    assert len(lines) == 1 + 4 * 2
    ks = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert ("1.0", "1.0") in ks    # baseline row always present
    entry = next(e for e in report["estimates"] if e["method"] == "aipw")
    baseline = next(line for line in lines[1:] if line.startswith("1.0,1.0,"))
    assert float(baseline.split(",")[3]) == pytest.approx(entry["estimate"], abs=1e-12)


def test_sensitivity_missing_method_errors(fixture_csv):
    cfg = _config(fixture_csv, methods=["trimmed_ipw"])
    report = cmd_analyze(cfg)
    with pytest.raises(Exception) as exc:
        cmd_sensitivity(cfg, report)
    assert "no trimmed aipw" in str(exc.value)


def _run_main(args):
    return main([str(a) for a in args])


def test_main_analyze_and_sensitivity_files(tmp_path, fixture_csv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(fixture_csv)))
    report_path = tmp_path / "report.json"
    assert _run_main(["analyze", "--config", cfg_path, "--output", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    grid_path = tmp_path / "grid.csv"
    assert _run_main(["sensitivity", "--config", cfg_path, "--report", report_path,
                      "--output", grid_path]) == 0
    assert grid_path.read_text().startswith("k1,k2,assumption")


def test_main_exit_codes(tmp_path, fixture_csv):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps(_config(fixture_csv, schema_version=2)))
    assert _run_main(["analyze", "--config", bad_schema]) == 2

    bad_data = tmp_path / "baddata.json"
    cfg = _config(fixture_csv)
    cfg["roles"]["covariates"] = ["nope"]
    bad_data.write_text(json.dumps(cfg))
    assert _run_main(["analyze", "--config", bad_data]) == 3

    missing_seed = tmp_path / "noseed.json"
    cfg = _config(fixture_csv, variance="bootstrap")
    del cfg["seed"]
    missing_seed.write_text(json.dumps(cfg))
    assert _run_main(["analyze", "--config", missing_seed]) == 2


@pytest.mark.parametrize("predicate", [
    {"var": "ineligible", "op": "in", "value": 3},
    {"var": "ineligible", "op": "==", "value": "1"},
    {"var": "no_such_column", "op": "==", "value": 1},
    {"var": "ineligible", "op": "~=", "value": 1},
])
def test_main_rejects_invalid_rule(tmp_path, fixture_csv, predicate):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(fixture_csv, exclusion_rules=[[predicate]])))
    assert _run_main(["analyze", "--config", cfg_path]) == 2


def test_rules_read_named_columns(fixture_csv):
    # the vectorised engine agrees with a per-row reading of the CSV
    data, columns = load_dataset(str(fixture_csv), _config(fixture_csv)["roles"])
    rules = [
        [{"var": "ineligible", "op": "in", "value": [1]}, {"var": "x1", "op": "<", "value": 0.5}],
        [{"var": "x2", "op": ">=", "value": 1.0}],
    ]
    with open(fixture_csv, newline="") as fh:
        raw = [row for row in csv.DictReader(fh) if row["selected"] == "0"]
    expected = [
        (float(r["ineligible"]) in (1.0,) and float(r["x1"]) < 0.5) or float(r["x2"]) >= 1.0
        for r in raw
    ]
    mask = evaluate_raw_rules(rules, columns, data.target_mask)
    assert mask.tolist() == expected
    assert mask.any() and not mask.all()


def test_main_simulate_smoke_and_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "sizes": [20000],
        "replications": 3,
        "p3_star": [0.8],
        "methods": ["aipw"],
        "assumptions": ["epd"],
        "outcome_family": "gaussian",
        "seed": 5150,
        "oracle_draws": 200000,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "study1.csv"
    out2 = tmp_path / "study2.csv"
    assert _run_main(["simulate", "--config", cfg_path, "--output", out1]) == 0
    assert _run_main(["simulate", "--config", cfg_path, "--output", out2, "--threads", "2"]) == 0
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().strip().splitlines()
    assert lines[0].startswith("trial_size,target_size,proportion")
    assert len(lines) == 2


def test_main_simulate_requires_seed(tmp_path):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "replications": 2}))
    assert _run_main(["simulate", "--config", cfg_path]) == 2


def test_main_calibrate(tmp_path, capsys):
    out = tmp_path / "cal.json"
    code = _run_main([
        "calibrate", "--slopes", "0,0,0,0", "--target", "0.5",
        "--draws", "100000", "--seed", "3", "--no-exclusions", "--output", out,
    ])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["intercept"] == pytest.approx(0.0, abs=1e-6)


def test_extrapolation_filter_refits_on_stratum(tmp_path):
    # surrogate-stratum refit: restrict trial rows used for the group models
    path = _write_fixture(tmp_path / "cohort.csv", seed=17)
    cfg = _config(path)
    cfg["sensitivity"]["extrapolation"] = {
        "r2_trial_filter": [[{"var": "x1", "op": ">=", "value": 0.0}]],
    }
    report = cmd_analyze(cfg)
    base = cmd_analyze(_config(path))
    assert report["zeta"]["zeta2"] != base["zeta"]["zeta2"]
    assert report["zeta"]["zeta1"] == base["zeta"]["zeta1"]
