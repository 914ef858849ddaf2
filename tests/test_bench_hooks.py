"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name from outside the package. These checks make a refactor that unbinds
one of them fail here rather than in a traced benchmark run."""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
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
from extval import cli, simulation
from test_cli import _config, _write_fixture

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


def _count_calls(monkeypatch, names) -> Counter:
    """Count the calls of each ``module.function`` in ``names``, replacing it
    wherever an ``extval`` module binds it, as the tracer does."""
    calls = Counter()
    for name in names:
        module, attr = name.split(".")
        original = getattr(importlib.import_module(f"extval.{module}"), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.startswith("extval") and getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_sandwich_method_builds_and_solves_its_own_system(tmp_path, monkeypatch):
    # the methods of one analysis share a core, but each still builds its
    # stacked system and its sandwich, the spans the tracer times
    names = ["estimators.build_stacked_system", "estimators.sandwich_variance"]
    calls = _count_calls(monkeypatch, names)
    config = _config(_write_fixture(tmp_path / "cohort.csv"),
                     methods=["ipw", "aipw", "trimmed_ipw", "trimmed_aipw"])
    report = cli.cmd_analyze(config)
    assert len(report["estimates"]) == 4
    assert calls == {name: 4 for name in names}


def test_a_replication_calls_the_trimmed_estimators_by_name(monkeypatch):
    names = ["estimators.trimmed_ipw", "estimators.trimmed_aipw"]
    calls = _count_calls(monkeypatch, names)
    study = simulation.StudyConfig(dgp=DgpConfig(n_total=20_000), replications=1, p3_stars=(0.8, 0.9),
                                   methods=("ipw", "aipw"), oracle_draws=1_000)
    assert len(simulation._one_replication(study, 0)) == 8
    assert calls == {name: 2 for name in names}
