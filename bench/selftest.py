"""Quick self-test of the benchmark, at tiny sizes (about 30 s).

Usage (from the repository root): python3 bench/selftest.py

1. Runs each workload untraced and traced, and requires every operation
   to pass its checks, every metric to be reported, and each traced
   layer to be busy exactly on the workloads that exercise it.
2. Shows that each output check accepts a real output and rejects a
   deliberately wrong one: a perturbed estimate, a dropped grid row, a
   miscounted exclusion, and so on for every check.
3. Shows that a run in a directory holding only BENCHMARK.json and the
   benchmark exits with a non-zero code and prints no result.

Exits with code 0 when all of it holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import time

import run  # sets the thread pins before numpy loads
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

SEED = 7
END_TO_END = {"op_s", "peak_rss_mb", "setup_s"}
# Per-layer time metrics that must be zero on some workloads and positive
# on the others: which workloads exercise each layer.
BUSY_ON = {
    "cli.load_dataset_s": {"analyze-registry", "analyze-bootstrap"},
    "cli.evaluate_raw_rules_s": {"analyze-registry", "analyze-bootstrap"},
    "cli.cmd_analyze_self_s": {"analyze-registry", "analyze-bootstrap"},
    "data.subset_s": {"analyze-bootstrap"},
    "estimators.build_stacked_system_s": {"analyze-registry", "simulate-binary"},
    "estimators.sandwich_variance_s": {"analyze-registry", "simulate-binary"},
    "estimators.psi_evals": {"analyze-registry", "simulate-binary"},
    "estimators.bootstrap_replicate_s": {"analyze-bootstrap"},
    "simulation.generate_cohort_s": {"simulate-binary"},
    "simulation.true_tau_oracle_s": {"simulate-binary"},
    "sensitivity.sensitivity_sweep_s": {"analyze-registry"},
    "glm.fit_glm_calls": set(workloads.WORKLOADS),
    "partition.solve_threshold_calls": set(workloads.WORKLOADS),
}
MUST_BE_ZERO = ("estimators.bootstrap_replicate_errors", "simulation.run_study_failures")

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# wrong outputs, one per check
# ---------------------------------------------------------------------------

def _bump(value, rel=1e-6):
    return value + rel * (1.0 + abs(value))


def _edit_report(texts, *keys, change=_bump):
    """Apply ``change`` to one value of the report JSON, found by ``keys``."""
    report = json.loads(texts[0])
    parent = report
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = change(parent[keys[-1]])
    return [json.dumps(report, indent=2) + "\n", *texts[1:]]


def _edit_csv(texts, index, row, column, change):
    """Apply ``change`` to one cell (a string) of output ``index``, or drop
    the row when ``column`` is None."""
    lines = texts[index].splitlines(keepends=True)
    if column is None:
        del lines[row]
    else:
        cells = lines[row].rstrip("\n").split(",")
        cells[column] = change(cells[column])
        lines[row] = ",".join(cells) + "\n"
    return [*texts[:index], "".join(lines), *texts[index + 1:]]


ANALYZE_TAMPERS = {
    "perturbed estimate": lambda t: _edit_report(t, "estimates", 0, "estimate"),
    "perturbed sampling coefficient": lambda t: _edit_report(t, "sampling_model", "coefficients", 1),
    "perturbed propensity coefficient": lambda t: _edit_report(t, "propensity_model", "coefficients", 0),
    "perturbed outcome coefficient": lambda t: _edit_report(t, "outcome_models", "control", "coefficients", 2),
    "miscounted exclusion": lambda t: _edit_report(t, "partition", "counts", 0, change=lambda v: v + 1),
    "threshold off its share": lambda t: _edit_report(t, "partition", "delta_star", change=lambda v: v * 1.05),
    "perturbed zeta": lambda t: _edit_report(t, "zeta", "zeta2"),
    "non-positive SE": lambda t: _edit_report(t, "estimates", -1, "se", change=lambda v: 0.0),
}
SANDWICH_TAMPERS = {
    "CI not estimate +- 1.96 SE": lambda t: _edit_report(t, "estimates", 1, "ci", 0),
    "dropped grid row": lambda t: _edit_csv(t, 1, 3, None, None),
    "perturbed grid row": lambda t: _edit_csv(t, 1, 2, 3, lambda v: repr(_bump(float(v)))),
}
BOOTSTRAP_TAMPERS = {
    "bootstrap SE off the sandwich SE": lambda t: _edit_report(t, "estimates", 0, "se", change=lambda v: 3.0 * v),
}
STUDY_TAMPERS = {
    "dropped study row": lambda t: _edit_csv(t, 0, 2, None, None),
    "coverage off the 1/R lattice": lambda t: _edit_csv(t, 0, 1, 8, lambda v: "0.250000"),
    "mse off bias^2 + sd^2 (R-1)/R": lambda t: _edit_csv(t, 0, 1, 6, lambda v: f"{float(v) + 1e-4:.6f}"),
}
TAMPERS = {
    "analyze-registry": {**ANALYZE_TAMPERS, **SANDWICH_TAMPERS},
    "analyze-bootstrap": {**ANALYZE_TAMPERS, **BOOTSTRAP_TAMPERS},
    "simulate-binary": STUDY_TAMPERS,
}


def check_rejections(workload: str) -> None:
    run_dir = run.BENCH / "runs" / f"selftest-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        prepared = workloads.prepare(workload, SEED, workloads.SMALL[workload], run_dir)
        result = run.launch(prepared, run_dir, 0, 0, 0.1, False, run._clock() + 120)
        texts = [p.read_text() for p in prepared.outputs(0)]
        complaints = prepared.check(texts)
        expect(not complaints, f"{workload}: real output accepted {complaints[:1]}")
        for name, tamper in TAMPERS[workload].items():
            wrong = prepared.check(tamper(texts))
            expect(bool(wrong), f"{workload}: {name} rejected ({wrong[0] if wrong else 'accepted'})")
        # a later operation whose output passes the checks but differs from the first one's
        second = prepared.outputs(1)[0]
        second.write_text(second.read_text() + "\n")
        verdicts = {"attempted": 0, "failed": 0, "rejected": 0, "errors": [], "reference": None}
        run.judge(prepared, result["ops"][:2], verdicts)
        expect(verdicts["rejected"] == 1 and verdicts["attempted"] == 2
               and verdicts["errors"][-1].endswith("differs from the run's first operation on the same inputs"),
               f"{workload}: an operation differing from the first is rejected")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# whole runs, untraced and traced
# ---------------------------------------------------------------------------

def check_runs() -> None:
    busy = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, SEED, 0.5, trace, sizes=workloads.SMALL)
            names = set(result["metrics"])
            want = set(tracing.LAYER_METRICS) if trace else END_TO_END
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= (2 if trace else 4),
                   f"{workload} trace={int(trace)}: {result['attempted']} operations, "
                   f"{result['failed']} failed, correct={result['correct']}")
            expect(names == want, f"{workload} trace={int(trace)}: reports exactly its metrics")
            expect(all(m["value"] >= 0 for m in result["metrics"].values()),
                   f"{workload} trace={int(trace)}: no negative metric")
            if trace:
                busy[workload] = {k: m["value"] for k, m in result["metrics"].items()}
    for metric, on in BUSY_ON.items():
        active = {w for w in workloads.WORKLOADS if busy[w][metric] > 0}
        expect(active == on, f"{metric} busy on {sorted(active)}")
    for metric in MUST_BE_ZERO:
        expect(all(busy[w][metric] == 0 for w in workloads.WORKLOADS), f"{metric} is 0 everywhere")


def check_stripped_checkout() -> None:
    """Only BENCHMARK.json and the benchmark: the run must fail, printing no result."""
    stripped = run.BENCH / "runs" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, stripped / "bench",
                        ignore=shutil.ignore_patterns("runs", "traces", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workloads.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode != 0 and proc.stdout == "",
               f"stripped checkout: exit code {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)


def main() -> int:
    started = time.monotonic()
    for workload in workloads.WORKLOADS:
        check_rejections(workload)
    check_runs()
    check_stripped_checkout()
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} failures "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
