"""Spans and counts around the package's public functions, from outside it.

``Tracer.install()`` replaces each traced function with a wrapper in every
``extval`` module that binds the name (``cli`` imports the fit and
estimator functions under their own names, so patching the defining
module alone would miss those calls). Each wrapper records a span: name,
start, end, parent span and operation id. Spans stay in memory until the
worker writes them out at the end of its run. ``layer_metrics`` turns the
spans of one operation into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import tracemalloc

MB = 2.0 ** 20

# (module, function) pairs whose calls become spans, keyed by span name.
TRACED = {
    "cli.load_dataset": ("extval.cli", "load_dataset"),
    "cli.evaluate_raw_rules": ("extval.cli", "evaluate_raw_rules"),
    "cli.cmd_analyze": ("extval.cli", "cmd_analyze"),
    "glm.fit_glm": ("extval.glm", "fit_glm"),
    "partition.solve_threshold": ("extval.partition", "solve_threshold"),
    "estimators.hajek_ipw": ("extval.estimators", "hajek_ipw"),
    "estimators.trimmed_ipw": ("extval.estimators", "trimmed_ipw"),
    "estimators.augmented_ipw": ("extval.estimators", "augmented_ipw"),
    "estimators.trimmed_aipw": ("extval.estimators", "trimmed_aipw"),
    "estimators.build_stacked_system": ("extval.estimators", "build_stacked_system"),
    "estimators.sandwich_variance": ("extval.estimators", "sandwich_variance"),
    "estimators.bootstrap_ci": ("extval.estimators", "bootstrap_ci"),
    "simulation.generate_cohort": ("extval.simulation", "generate_cohort"),
    "simulation.true_tau_oracle": ("extval.simulation", "true_tau_oracle"),
    "simulation.run_study": ("extval.simulation", "run_study"),
    "sensitivity.sensitivity_sweep": ("extval.sensitivity", "sensitivity_sweep"),
}
POINT_ESTIMATORS = (
    "estimators.hajek_ipw", "estimators.trimmed_ipw",
    "estimators.augmented_ipw", "estimators.trimmed_aipw",
)

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "cli.load_dataset_s": "s",
    "cli.load_dataset_peak_mb": "MB",
    "cli.evaluate_raw_rules_s": "s",
    "cli.cmd_analyze_self_s": "s",
    "glm.fit_glm_s": "s",
    "glm.fit_glm_calls": "count",
    "glm.newton_iters": "count",
    "partition.solve_threshold_s": "s",
    "partition.solve_threshold_calls": "count",
    "data.subset_s": "s",
    "estimators.point_s": "s",
    "estimators.build_stacked_system_s": "s",
    "estimators.sandwich_variance_s": "s",
    "estimators.psi_evals": "count",
    "estimators.psi_mb": "MB",
    "estimators.bootstrap_replicate_s": "s",
    "estimators.bootstrap_replicate_errors": "count",
    "simulation.generate_cohort_s": "s",
    "simulation.true_tau_oracle_s": "s",
    "simulation.run_study_failures": "count",
    "sensitivity.sensitivity_sweep_s": "s",
    "trace.op_s": "s",
}


class Tracer:
    """Records spans and counts for the operation that is running."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        # tracemalloc slows every allocation, so the worker turns it off
        # after its untimed first operation; the peak is the same on every
        # operation of a run, the time is not.
        self.measure_memory = True
        self._stack: list[int] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans), "name": name, "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        extra = {
            "cli.load_dataset": self._during_load,
            "glm.fit_glm": self._count_fit,
            "estimators.sandwich_variance": self._count_psi,
            "estimators.bootstrap_ci": self._count_replicates,
            "simulation.run_study": self._count_study,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(span, fn, args, kwargs)
            finally:
                self._close(span)

        return traced

    # -- counts at the layer boundaries -------------------------------------

    def _during_load(self, span, fn, args, kwargs):
        if not self.measure_memory:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    @staticmethod
    def _count_fit(span, fn, args, kwargs):
        fit = fn(*args, **kwargs)
        span["iterations"] = int(fit.iterations)
        return fit

    @staticmethod
    def _count_psi(span, fn, args, kwargs):
        span["psi_evals"] = 0
        span["psi_bytes"] = 0

        def counted(psi):
            @functools.wraps(psi)
            def evaluate(xi, *rest, **kw):
                out = psi(xi, *rest, **kw)
                span["psi_evals"] += 1
                span["psi_bytes"] += out.shape[0] * out.shape[1] * 8
                return out
            return evaluate

        system = args[0] if args else kwargs.pop("system")
        system = dataclasses.replace(
            system,
            psi=counted(system.psi),
            jacobian_psi=counted(system.jacobian_psi) if system.jacobian_psi else None,
        )
        return fn(system, *args[1:], **kwargs)

    @staticmethod
    def _count_replicates(span, fn, args, kwargs):
        span["errors"] = 0
        estimator, data, reps, *rest = args
        span["reps"] = int(reps)

        def counted(*a, **kw):
            try:
                return estimator(*a, **kw)
            except Exception:
                span["errors"] += 1
                raise

        return fn(counted, data, reps, *rest, **kwargs)

    @staticmethod
    def _count_study(span, fn, args, kwargs):
        report = fn(*args, **kwargs)
        span["failures"] = int(report.failures)
        return report

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an ``extval`` module binds it."""
        import extval.cli  # noqa: F401  (loads every module that binds a traced name)
        from extval.data import Dataset

        modules = [m for k, m in list(sys.modules.items()) if k == "extval" or k.startswith("extval.")]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{module}.{attr} is bound nowhere")
        Dataset.subset = self._wrap("data.subset", Dataset.subset)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def load_peak_mb(spans: list[dict]) -> float:
    """The tracemalloc peak of ``load_dataset``, from the spans that measured it."""
    return max((s["peak_bytes"] for s in spans if "peak_bytes" in s), default=0) / MB


def layer_metrics(spans: list[dict], op_seconds: float, peak_mb: float) -> dict[str, float]:
    """Per-layer totals of one operation's spans (all from one op id)."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)

    def total(name: str) -> float:
        return sum(_duration(s) for s in spans if s["name"] == name)

    def self_time(names) -> float:
        return sum(_duration(s) - child_time.get(s["id"], 0.0) for s in spans if s["name"] in names)

    def count(name: str, key: str | None = None) -> int:
        return sum((s[key] if key else 1) for s in spans if s["name"] == name)

    reps = count("estimators.bootstrap_ci", "reps")
    return {
        "cli.load_dataset_s": total("cli.load_dataset"),
        "cli.load_dataset_peak_mb": peak_mb,
        "cli.evaluate_raw_rules_s": total("cli.evaluate_raw_rules"),
        "cli.cmd_analyze_self_s": self_time(("cli.cmd_analyze",)),
        "glm.fit_glm_s": total("glm.fit_glm"),
        "glm.fit_glm_calls": count("glm.fit_glm"),
        "glm.newton_iters": count("glm.fit_glm", "iterations"),
        "partition.solve_threshold_s": total("partition.solve_threshold"),
        "partition.solve_threshold_calls": count("partition.solve_threshold"),
        "data.subset_s": total("data.subset"),
        "estimators.point_s": self_time(POINT_ESTIMATORS),
        "estimators.build_stacked_system_s": total("estimators.build_stacked_system"),
        "estimators.sandwich_variance_s": total("estimators.sandwich_variance"),
        "estimators.psi_evals": count("estimators.sandwich_variance", "psi_evals"),
        "estimators.psi_mb": count("estimators.sandwich_variance", "psi_bytes") / MB,
        "estimators.bootstrap_replicate_s": total("estimators.bootstrap_ci") / reps if reps else 0.0,
        "estimators.bootstrap_replicate_errors": count("estimators.bootstrap_ci", "errors"),
        "simulation.generate_cohort_s": total("simulation.generate_cohort"),
        "simulation.true_tau_oracle_s": total("simulation.true_tau_oracle"),
        "simulation.run_study_failures": count("simulation.run_study", "failures"),
        "sensitivity.sensitivity_sweep_s": total("sensitivity.sensitivity_sweep"),
        "trace.op_s": op_seconds,
    }
