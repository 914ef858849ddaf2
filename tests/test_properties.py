"""Invariance and equivariance of the four estimators and their sandwich
SEs, over generated cohorts: row order, each arm's weight scale, and for
the Gaussian family the outcome's location and scale. Each property
re-runs the whole pipeline, fits and threshold included, on the
transformed data; the weight-scale property keeps the sampling and
outcome fits, which the known treatment probability does not enter."""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from extval import (
    DgpConfig,
    GlmFamily,
    augmented_ipw,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    generate_cohort,
    hajek_ipw,
    partition_population,
    trimmed_aipw,
    trimmed_ipw,
)

GAUSS = GlmFamily.GAUSSIAN_IDENTITY
PROPERTY = settings(max_examples=10, deadline=None, database=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**16)


def _cohort(seed):
    data, truth = generate_cohort(DgpConfig(n_total=20_000), [seed, 7])
    return data, truth.excluded


def _analyze(data, excluded):
    """(estimate, se) of ipw, trimmed_ipw, aipw and trimmed_aipw;
    ``excluded`` is the exclusion flag of every row."""
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GAUSS)
    part = partition_population(data, sampling, propensity, excluded[data.target_mask], 0.8)
    reports = (
        hajek_ipw(data, sampling, propensity),
        trimmed_ipw(data, sampling, propensity, part),
        augmented_ipw(data, sampling, propensity, outcome),
        trimmed_aipw(data, sampling, propensity, outcome, part),
    )
    return np.array([(r.estimate, r.se) for r in reports])


@PROPERTY
@given(seed=seeds, order_seed=seeds)
def test_row_permutation_changes_nothing(seed, order_seed):
    data, excluded = _cohort(seed)
    order = np.random.default_rng(order_seed).permutation(data.n)
    base = _analyze(data, excluded)
    permuted = _analyze(data.subset(order), excluded[order])
    np.testing.assert_allclose(permuted, base, rtol=1e-10, atol=0.0)


@PROPERTY
@given(seed=seeds, shift=st.floats(min_value=-50.0, max_value=50.0))
def test_outcome_shift_leaves_estimate_and_se(seed, shift):
    data, excluded = _cohort(seed)
    base = _analyze(data, excluded)
    shifted = _analyze(dataclasses.replace(data, y=data.y + shift), excluded)
    # v1 and v2 each move by the shift, so their difference keeps an
    # absolute rounding error of a few ulps of the shift
    np.testing.assert_allclose(shifted, base, rtol=1e-10, atol=1e-12 * (1.0 + abs(shift)))


@PROPERTY
@given(
    seed=seeds,
    scale=st.floats(min_value=0.01, max_value=100.0) | st.floats(min_value=-100.0, max_value=-0.01),
)
def test_outcome_scale_scales_estimate_and_se(seed, scale):
    data, excluded = _cohort(seed)
    base = _analyze(data, excluded)
    scaled = _analyze(dataclasses.replace(data, y=data.y * scale), excluded)
    np.testing.assert_allclose(scaled[:, 0], scale * base[:, 0], rtol=1e-10)
    np.testing.assert_allclose(scaled[:, 1], abs(scale) * base[:, 1], rtol=1e-10)


@functools.cache
def _fits_for_known_propensity():
    data, _ = _cohort(0)
    return data, fit_sampling_score(data), fit_outcome_models(data, GAUSS)


def _untrimmed_at(known_probability):
    """(estimate, se) of ipw and aipw with a known treatment probability."""
    data, sampling, outcome = _fits_for_known_propensity()
    propensity = fit_propensity_score(data, known_probability=known_probability)
    reports = (
        hajek_ipw(data, sampling, propensity),
        augmented_ipw(data, sampling, propensity, outcome),
    )
    return np.array([(r.estimate, r.se) for r in reports])


@PROPERTY
@given(p=st.floats(min_value=0.05, max_value=0.95))
def test_arm_weight_scale_leaves_untrimmed_estimate_and_se(p):
    # a known probability p weighs the treated arm by 1/p and the control
    # arm by 1/(1 - p), so moving p scales each arm's weights by a constant
    np.testing.assert_allclose(_untrimmed_at(p), _untrimmed_at(0.5), rtol=1e-12, atol=0.0)
