"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name from outside the package. These checks make a refactor that unbinds
one of them fail here rather than in a traced benchmark run."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from extval import (
    Dataset,
    DgpConfig,
    GlmFamily,
    GlmFit,
    StackedSystem,
    StationarityError,
    bootstrap_ci,
    build_stacked_system,
    fit_glm,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    generate_cohort,
    partition_population,
    sandwich_variance,
)

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


def test_subset_is_a_plain_function_on_the_dataset_class():
    # the tracer rebinds Dataset.subset to a wrapper of the class attribute
    assert inspect.isfunction(vars(Dataset).get("subset"))


def test_fit_glm_returns_a_fit_with_iterations():
    # the tracer counts Newton steps from the returned fit
    fit = fit_glm(np.ones((4, 1)), np.array([1.0, 1.0, 0.0, 1.0]), GlmFamily.BERNOULLI_LOGIT)
    assert isinstance(fit, GlmFit)
    assert isinstance(fit.iterations, int) and fit.iterations > 0


def test_sandwich_survives_the_counting_wrappers_and_rereads_a_replaced_xi():
    # the tracer replaces psi and jacobian_psi with counting wrappers
    # through dataclasses.replace; the sandwich must keep its value
    data, truth = generate_cohort(DgpConfig(n_total=20_000), 12)
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GlmFamily.GAUSSIAN_IDENTITY)
    part = partition_population(data, sampling, propensity, truth.excluded[data.target_mask], 0.8)
    system = build_stacked_system(data, sampling, propensity, outcome, part)
    calls = []

    def counted(psi):
        def evaluate(xi, *rest, **kw):
            calls.append(psi)
            return psi(xi, *rest, **kw)
        return evaluate

    wrapped = dataclasses.replace(
        system, psi=counted(system.psi), jacobian_psi=counted(system.jacobian_psi)
    )
    assert sandwich_variance(wrapped) == sandwich_variance(system)
    # the sandwich reads the rows kept at the build, not a second
    # evaluation, so the wrappers do not see it
    assert calls == []
    # a replaced xi is not the one those rows were kept at: psi is read
    copied = dataclasses.replace(wrapped, xi=system.xi.copy())
    assert np.isclose(sandwich_variance(copied), sandwich_variance(system), rtol=1e-12, atol=0)
    assert len(calls) == 1
    moved = system.xi.copy()
    moved[0] += 0.1  # the sampling intercept
    with pytest.raises(StationarityError):
        sandwich_variance(dataclasses.replace(system, xi=moved))
