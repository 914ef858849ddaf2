"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name from outside the package. These checks make a refactor that unbinds
one of them fail here rather than in a traced benchmark run."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from extval import StackedSystem, bootstrap_ci

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = tracing.TRACED
    assert traced
    for span, (module, name) in traced.items():
        assert callable(getattr(importlib.import_module(module), name, None)), span


def test_stacked_system_keeps_the_counted_fields():
    fields = {f.name for f in dataclasses.fields(StackedSystem)}
    assert {"psi", "jacobian_psi"} <= fields


def test_bootstrap_signature_starts_with_estimator_data_reps():
    params = list(inspect.signature(bootstrap_ci).parameters)
    assert params[:3] == ["estimator", "data", "reps"]
