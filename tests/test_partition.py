import numpy as np
import pytest

from extval import (
    ConfigError,
    DegenerateScoresError,
    DimensionError,
    GlmFamily,
    GlmFit,
    UnattainableProportionError,
    make_dataset,
    partition_population,
    solve_threshold,
)
from extval.cli import evaluate_raw_rules
from extval.partition import _smooth_k

# the generating process's exclusion over named columns: the flag or x4 at its cut
RULE_E_OR_X4 = [
    [{"var": "flag", "op": "==", "value": 1}],
    [{"var": "x4", "op": ">=", "value": 3.0}],
]


def _columns(x, names):
    # CSV cells by column name, as load_dataset returns them
    return {name: tuple(repr(float(v)) for v in x[:, j]) for j, name in enumerate(names)}


def _target_only_dataset(x_target):
    # one token trial row so the pooled container is well formed
    x_target = np.asarray(x_target, dtype=float)
    x1 = x_target[:1].copy()
    return make_dataset(x1, np.array([1.0]), np.array([0.0]), x_target)


def test_exclusion_rule_matches_direct_mask():
    rng = np.random.default_rng(21)
    m = 500
    x = np.column_stack([np.ones(m), rng.standard_normal((m, 4)), (rng.random(m) < 0.2).astype(float)])
    columns = _columns(x, ["one", "x1", "x2", "x3", "x4", "flag"])
    mask = evaluate_raw_rules(RULE_E_OR_X4, columns, np.ones(m, dtype=bool))
    expected = (x[:, 5] == 1.0) | (x[:, 4] >= 3.0)
    assert np.array_equal(mask, expected)
    assert mask.any()
    # the mask is what the partition takes: those rows become group 1
    data = _target_only_dataset(x)
    sampling, propensity = _fits_for(6)
    part = partition_population(data, sampling, propensity, mask, 0.5)
    assert np.array_equal(part.r1_mask, mask)


def test_empty_rule_excludes_nothing():
    columns = _columns(np.ones((10, 2)), ["one", "x1"])
    assert not evaluate_raw_rules([], columns, np.ones(10, dtype=bool)).any()
    data = _target_only_dataset(np.column_stack([np.ones(10), np.arange(10.0)]))
    sampling, propensity = _fits_for(2)
    assert not partition_population(data, sampling, propensity, None, 0.5).r1_mask.any()


def test_conjunction_within_clause():
    x = np.array([[1.0, 2.0, 5.0], [1.0, 2.0, 1.0], [1.0, 0.0, 5.0]])
    rule = [[{"var": "x1", "op": "==", "value": 2.0}, {"var": "x2", "op": ">", "value": 3.0}]]
    mask = evaluate_raw_rules(rule, _columns(x, ["one", "x1", "x2"]), np.ones(3, dtype=bool))
    assert mask.tolist() == [True, False, False]


def test_rule_error_paths():
    columns = _columns(np.ones((4, 2)), ["one", "x1"])
    rows = np.ones(4, dtype=bool)
    with pytest.raises(ConfigError):
        evaluate_raw_rules([[{"var": "x9", "op": "==", "value": 1.0}]], columns, rows)
    with pytest.raises(ConfigError):
        evaluate_raw_rules([[{"var": "one", "op": "~=", "value": 1.0}]], columns, rows)
    data = _target_only_dataset(np.ones((4, 2)))
    sampling, propensity = _fits_for(2)
    with pytest.raises(DimensionError):
        partition_population(data, sampling, propensity, np.zeros(3, dtype=bool), 0.5)


def test_rule_set_membership():
    x = np.array([[1.0, 2.0], [1.0, 5.0], [1.0, 7.0]])
    rule = [[{"var": "x1", "op": "in", "value": [2.0, 7.0]}]]
    mask = evaluate_raw_rules(rule, _columns(x, ["one", "x1"]), np.ones(3, dtype=bool))
    assert mask.tolist() == [True, False, True]


def test_smooth_inclusion_trivial_values():
    # membership of a row whose two score products are (hs*e1, hs*e0)
    assert _smooth_k(0.5, 0.5, 0.01, 1e-8) == pytest.approx(1.0, abs=1e-12)
    assert _smooth_k(0.25, 0.25, 0.25, 1e-8) == pytest.approx(0.25, abs=1e-12)
    assert _smooth_k(0.0005, 0.0005, 0.2, 1e-8) == pytest.approx(0.0, abs=1e-12)


def test_smooth_matches_hard_indicator_away_from_threshold():
    rng = np.random.default_rng(8)
    prods = rng.random(200)
    delta = 0.4
    keep = np.abs(prods - delta) >= 1e-6
    smooth = _smooth_k(prods, prods, delta, 1e-8)
    hard = (prods >= delta).astype(float)
    assert np.max(np.abs(smooth[keep] - hard[keep])) <= 1e-9


def test_solve_threshold_matches_sort_quantile_oracle():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = 100
        prods = rng.random(n)
        hs = 2.0 * prods
        e = np.full(n, 0.5)
        delta = solve_threshold((hs, e, e), 0.8, 1e-8)
        oracle = np.sort(prods)[19]  # 20th smallest: keep exactly 80 rows
        assert abs(delta - oracle) < 1e-4
        k = _smooth_k(hs * e, hs * e, delta, 1e-8)
        assert abs(np.mean(k) - 0.8) <= 1e-6


def test_solve_threshold_fractional_target():
    rng = np.random.default_rng(32)
    hs = 2.0 * rng.random(100)
    e = np.full(100, 0.5)
    delta = solve_threshold((hs, e, e), 0.815, 1e-8)
    k = _smooth_k(hs * e, hs * e, delta, 1e-8)
    assert abs(np.mean(k) - 0.815) <= 1e-6


def test_solve_threshold_full_mass_returns_zero():
    hs = np.array([0.4, 0.6, 0.8])
    e = np.full(3, 0.5)
    delta = solve_threshold((hs, e, e), 1.0, 1e-8)
    assert delta < np.min(hs * 0.5)
    assert delta == pytest.approx(0.0)


def test_solve_threshold_unattainable():
    hs = np.array([0.4, 0.6, 0.8])
    e = np.full(3, 0.5)
    with pytest.raises(UnattainableProportionError):
        solve_threshold((hs, e, e), 0.9, 1e-8, r1_mask=np.array([True, False, False]))


def test_solve_threshold_degenerate_plateau():
    hs = np.full(50, 0.4)
    e = np.full(50, 0.5)
    with pytest.raises(DegenerateScoresError):
        solve_threshold((hs, e, e), 0.5, 1e-8)


def test_mean_smooth_inclusion_nonincreasing_in_delta():
    rng = np.random.default_rng(9)
    for _ in range(5):
        prods = rng.random(80)
        deltas = np.sort(rng.random(25))
        means = [np.mean(_smooth_k(prods, prods, d, 1e-8)) for d in deltas]
        assert np.all(np.diff(means) <= 1e-15)


def _fits_for(q):
    sampling = GlmFit(np.array([-1.0] + [0.5] * (q - 1)), GlmFamily.BERNOULLI_LOGIT, True, 5, 0.0)
    propensity = GlmFit(np.zeros(q), GlmFamily.BERNOULLI_LOGIT, True, 0, 0.0)
    return sampling, propensity


def _partition_dataset(rng, n1=40, n2=400, q=3):
    x1 = np.column_stack([np.ones(n1), rng.standard_normal((n1, q - 1)) + 0.5])
    x2 = np.column_stack([np.ones(n2), rng.standard_normal((n2, q - 1))])
    a = (rng.random(n1) < 0.5).astype(float)
    return make_dataset(x1, a, rng.standard_normal(n1), x2)


def test_partition_reaches_requested_share():
    rng = np.random.default_rng(14)
    data = _partition_dataset(rng)
    sampling, propensity = _fits_for(3)
    part = partition_population(data, sampling, propensity, None, 0.85)
    assert sum(part.p_hat) == pytest.approx(1.0, abs=1e-12)
    assert part.p_hat[2] == pytest.approx(0.85, abs=1e-6)
    assert np.mean(part.k_smooth) == pytest.approx(0.85, abs=1e-6)
    assert np.all(part.k_smooth[part.r1_mask] == 0.0)


def test_partition_no_rules_p3_one_all_well_represented():
    rng = np.random.default_rng(15)
    data = _partition_dataset(rng)
    sampling, propensity = _fits_for(3)
    part = partition_population(data, sampling, propensity, None, 1.0)
    assert part.p_hat == (0.0, 0.0, 1.0)
    assert np.all(part.labels == 3)


def test_partition_row_order_invariance():
    rng = np.random.default_rng(16)
    data = _partition_dataset(rng)
    sampling, propensity = _fits_for(3)
    part = partition_population(data, sampling, propensity, None, 0.7)
    perm = rng.permutation(data.n)
    part_p = partition_population(data.subset(perm), sampling, propensity, None, 0.7)
    assert part_p.delta_star == pytest.approx(part.delta_star, abs=1e-12)
    assert part.p_hat == part_p.p_hat
    # each target row keeps its label: map permuted rows back to originals
    tgt_ids = np.flatnonzero(data.target_mask)
    orig_pos = np.searchsorted(tgt_ids, perm[data.s[perm] == 0])
    assert np.array_equal(part.labels[orig_pos], part_p.labels)


def test_partition_rule_covering_everything_is_unattainable():
    rng = np.random.default_rng(17)
    data = _partition_dataset(rng)
    sampling, propensity = _fits_for(3)
    everything = np.ones(data.n2, dtype=bool)
    with pytest.raises(UnattainableProportionError):
        partition_population(data, sampling, propensity, everything, 0.5)


def test_partition_group_shares_synthetic_2_8_90():
    # construct a target where exclusions are 2% and p3* = 0.9
    rng = np.random.default_rng(18)
    n2 = 5000
    x2 = np.column_stack([np.ones(n2), rng.standard_normal((n2, 2))])
    flags = np.zeros(n2)
    flags[: int(0.02 * n2)] = 1.0
    x2 = np.column_stack([x2, flags])
    n1 = 100
    x1 = np.column_stack([np.ones(n1), rng.standard_normal((n1, 2)) + 1.0, np.zeros(n1)])
    data = make_dataset(x1, (rng.random(n1) < 0.5).astype(float), rng.standard_normal(n1), x2)
    sampling = GlmFit(np.array([-1.0, 0.5, 0.5, 0.0]), GlmFamily.BERNOULLI_LOGIT, True, 5, 0.0)
    propensity = GlmFit(np.zeros(4), GlmFamily.BERNOULLI_LOGIT, True, 0, 0.0)
    part = partition_population(data, sampling, propensity, x2[:, 3] == 1.0, 0.9)
    c1, c2, c3 = part.counts
    assert c1 == int(0.02 * n2)
    assert part.p_hat[0] == pytest.approx(0.02, abs=1e-12)
    assert part.p_hat[2] == pytest.approx(0.9, abs=1e-6)
    assert c3 / n2 == pytest.approx(0.9, abs=1e-3)
