import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

from extval import (
    ConfigError,
    DegenerateScoresError,
    DimensionError,
    GlmFamily,
    GlmFit,
    NotConvergedError,
    UnattainableProportionError,
    make_dataset,
    partition_population,
    predict_mean,
    solve_threshold,
)
from extval import cli, partition
from extval.cli import CsvColumns, evaluate_raw_rules, load_dataset
from extval.partition import (
    MEAN_TOL,
    SATURATED,
    _cdf,
    _membership,
    _saturation,
    _smooth_k,
    _smooth_pairs,
    normal_cdf,
)

# the generating process's exclusion over named columns: the flag or x4 at its cut
RULE_E_OR_X4 = [
    [{"var": "flag", "op": "==", "value": 1}],
    [{"var": "x4", "op": ">=", "value": 3.0}],
]


def _evaluate(rules, columns, rows):
    # a rule set parsed as analyze parses the exclusion rules, then evaluated
    return evaluate_raw_rules(cli._rule_sets({"exclusion_rules": rules})[0]["exclusion_rules"], columns, rows)


def _columns(x, names):
    # the columns of x by name, as load_dataset returns a CSV's, on lines 2 on
    lines = np.arange(len(x)) + 2
    return CsvColumns({name: x[:, j] for j, name in enumerate(names)}, lines, {}, "x.csv")


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
    mask = _evaluate(RULE_E_OR_X4, columns, np.ones(m, dtype=bool))
    expected = (x[:, 5] == 1.0) | (x[:, 4] >= 3.0)
    assert np.array_equal(mask, expected)
    assert mask.any()
    # the mask is what the partition takes: those rows become group 1
    data = _target_only_dataset(x)
    sampling, propensity = _fits_for(6)
    part = partition_population(data, sampling, propensity, mask, 0.5)
    assert np.array_equal(part.r1_mask, mask)


def test_rule_engine_on_loaded_columns_matches_direct_mask(tmp_path):
    rng = np.random.default_rng(22)
    n1, n2 = 60, 540
    x = np.column_stack([np.ones(n1 + n2), 1.5 * rng.standard_normal((n1 + n2, 4)),
                         (rng.random(n1 + n2) < 0.05).astype(float)])
    s = np.r_[np.ones(n1), np.zeros(n2)]
    lines = ["s,a,y,x1,x2,x3,x4,flag"]
    for i in range(n1 + n2):
        ay = f"{i % 2},{rng.standard_normal()!r}" if s[i] else ","
        lines.append(f"{int(s[i])},{ay}," + ",".join(repr(float(v)) for v in x[i, 1:5]) + f",{int(x[i, 5])}")
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n")
    roles = {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2", "x3", "x4"]}
    data, loaded = load_dataset(str(path), roles, {"flag": "exclusion_rules"})
    for rows in (data.target_mask, data.trial_mask):
        mask = _evaluate(RULE_E_OR_X4, loaded, rows)
        assert np.array_equal(mask, ((x[:, 5] == 1.0) | (x[:, 4] >= 3.0))[rows])
    assert _evaluate(RULE_E_OR_X4, loaded, data.target_mask).any()


def test_empty_rule_excludes_nothing():
    columns = _columns(np.ones((10, 2)), ["one", "x1"])
    assert not _evaluate([], columns, np.ones(10, dtype=bool)).any()
    data = _target_only_dataset(np.column_stack([np.ones(10), np.arange(10.0)]))
    sampling, propensity = _fits_for(2)
    assert not partition_population(data, sampling, propensity, None, 0.5).r1_mask.any()


def test_conjunction_within_clause():
    x = np.array([[1.0, 2.0, 5.0], [1.0, 2.0, 1.0], [1.0, 0.0, 5.0]])
    rule = [[{"var": "x1", "op": "==", "value": 2.0}, {"var": "x2", "op": ">", "value": 3.0}]]
    mask = _evaluate(rule, _columns(x, ["one", "x1", "x2"]), np.ones(3, dtype=bool))
    assert mask.tolist() == [True, False, False]


def test_rule_error_paths():
    columns = _columns(np.ones((4, 2)), ["one", "x1"])
    rows = np.ones(4, dtype=bool)
    with pytest.raises(ConfigError):
        _evaluate([[{"var": "one", "op": "~=", "value": 1.0}]], columns, rows)
    data = _target_only_dataset(np.ones((4, 2)))
    sampling, propensity = _fits_for(2)
    with pytest.raises(DimensionError):
        partition_population(data, sampling, propensity, np.zeros(3, dtype=bool), 0.5)
    scores = (np.array([0.4, 0.6, 0.8]), np.full(3, 0.5), np.full(3, 0.5))
    with pytest.raises(DimensionError):
        solve_threshold(scores, 0.5, 1e-8, np.zeros(2, dtype=bool))


def test_rule_set_membership():
    x = np.array([[1.0, 2.0], [1.0, 5.0], [1.0, 7.0]])
    rule = [[{"var": "x1", "op": "in", "value": [2.0, 7.0]}]]
    mask = _evaluate(rule, _columns(x, ["one", "x1"]), np.ones(3, dtype=bool))
    assert mask.tolist() == [True, False, True]


def test_normal_cdf_is_within_one_rounding_of_scipy():
    # scipy's ndtr is the reference here only; the package does not load scipy
    u = np.linspace(-45.0, 45.0, 360_001)
    assert np.max(np.abs(normal_cdf(u) - ndtr(u))) <= 2.3e-16


def test_normal_cdf_saturates_exactly():
    # 1.0 from 9 on, where normal_cdf does not call erfc and the formula
    # gives 1.0 as well; 0.0 from -SATURATED down, as _saturation assumes
    above = np.linspace(9.0, 80.0, 20_001)
    assert np.all(normal_cdf(above) == 1.0)
    assert all(_cdf(v) == 1.0 for v in above.tolist())
    below = np.linspace(-SATURATED - 40.0, -SATURATED, 20_001)
    assert np.all(normal_cdf(below) == 0.0)


def test_normal_cdf_maps_nan_and_infinities_as_scipy_does():
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    np.testing.assert_array_equal(normal_cdf(special), ndtr(special))
    assert [_cdf(v) for v in special[1:].tolist()] == ndtr(special[1:]).tolist()
    assert np.isnan(_cdf(float("nan")))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=st.one_of(
        st.floats(-50.0, 50.0), st.sampled_from([np.nan, np.inf, -np.inf, 9.0, -SATURATED]),
    )),
    st.integers(0, 39),
)
def test_normal_cdf_value_depends_on_its_element_alone(values, at):
    # whatever the array's length or the element's position, each value is
    # _cdf of its element, bit for bit; a 2-d array gives the same values
    at %= values.size
    whole = normal_cdf(values)
    alone = [_cdf(v) for v in values.tolist()]
    assert whole.tobytes() == np.array(alone).tobytes()
    assert normal_cdf(values[at:]).tobytes() == whole[at:].tobytes()
    assert normal_cdf(values[at]).tobytes() == whole[at].tobytes()
    assert normal_cdf(np.stack((values, values[::-1]))).tobytes() == np.stack((whole, whole[::-1])).tobytes()


def test_smooth_pairs_is_smooth_k_bit_for_bit():
    rng = np.random.default_rng(12)
    delta, eps = 0.3, 1e-8
    prod1 = delta + rng.uniform(-60.0, 60.0, 500) * eps
    prod0 = np.concatenate([delta + rng.uniform(-60.0, 60.0, 497) * eps, [np.nan, np.inf, -np.inf]])
    pairs = zip(prod1.tolist(), prod0.tolist())
    got = np.array(_smooth_pairs(pairs, delta, eps))
    assert got.tobytes() == _smooth_k(prod1, prod0, delta, eps).tobytes()


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


def test_membership_is_smooth_k_bit_for_bit():
    # rows at, inside and beyond 40 smoothing scales either side of delta,
    # with tied and non-finite products
    rng = np.random.default_rng(9)
    delta, eps = 0.3, 1e-8
    offsets = np.concatenate([
        rng.uniform(-60.0, 60.0, 400), [-40.0, 40.0, -39.999, 39.999, 0.0],
    ]) * eps
    prod1 = np.concatenate([delta + offsets, rng.random(100), [np.nan, 0.5]])
    prod0 = np.concatenate([delta + rng.permutation(offsets), rng.random(100), [0.5, np.nan]])
    for scale in (eps, 5e-5):
        got = _membership(prod1, prod0, delta, scale)
        assert got.tobytes() == _smooth_k(prod1, prod0, delta, scale).tobytes()


def test_saturation_window_smooths_rows_short_of_saturation():
    # min products 5 to 8 scales outside either end of a bracket, where
    # normal_cdf is not yet exactly 0 or 1 at that end: _saturation must leave them to
    # be smoothed, so that its weights equal _smooth_k over all rows
    rng = np.random.default_rng(10)
    q, eps = 0.3, 1e-8
    lo, hi = q - 10.0 * eps, q + 10.0 * eps
    near = rng.uniform(5.0, 8.0, 200) * eps
    min_prods = np.concatenate([
        hi + near, lo - near, rng.uniform(lo, hi, 50), [hi + 40.0 * eps, lo - 40.0 * eps],
    ])
    other = min_prods + rng.uniform(0.0, 3.0, min_prods.size) * eps
    swap = rng.random(min_prods.size) < 0.5
    prod1, prod0 = np.where(swap, other, min_prods), np.where(swap, min_prods, other)
    for delta in (lo, hi, q, *rng.uniform(lo, hi, 5)):
        weights, window = _saturation(np.minimum(prod1, prod0), lo, hi, eps)
        weights[window] = _smooth_k(prod1[window], prod0[window], delta, eps)
        full = _smooth_k(prod1, prod0, delta, eps)
        assert weights.tobytes() == full.tobytes()
        assert np.sum(weights) == np.sum(full)


def test_solve_threshold_matches_sort_quantile_oracle():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = 100
        prods = rng.random(n)
        hs = 2.0 * prods
        e = np.full(n, 0.5)
        delta = solve_threshold((hs, e, e), 0.8, 1e-8, np.zeros(n, dtype=bool))
        oracle = np.sort(prods)[19]  # 20th smallest: keep exactly 80 rows
        assert abs(delta - oracle) < 1e-4
        k = _smooth_k(hs * e, hs * e, delta, 1e-8)
        assert abs(np.mean(k) - 0.8) <= 1e-9


def test_solve_threshold_fractional_target():
    rng = np.random.default_rng(32)
    hs = 2.0 * rng.random(100)
    e = np.full(100, 0.5)
    delta = solve_threshold((hs, e, e), 0.815, 1e-8, np.zeros(100, dtype=bool))
    k = _smooth_k(hs * e, hs * e, delta, 1e-8)
    assert abs(np.mean(k) - 0.815) <= 1e-9


def test_solve_threshold_count_just_below_whole():
    # p3*·m = 3999.9995: the floor is 3999, so the 4000th largest product
    # carries 0.9995 of a row and the threshold sits a few scales below it
    rng = np.random.default_rng(33)
    prods = rng.random(5000)
    e = np.full(5000, 0.5)
    delta = solve_threshold((2.0 * prods, e, e), 0.7999999999, 1e-8, np.zeros(5000, dtype=bool))
    k = _smooth_k(prods, prods, delta, 1e-8)
    assert abs(np.mean(k) - 0.7999999999) <= 1e-9
    q = np.sort(prods)[::-1][3999]
    assert q - 10e-8 < delta < q


def test_solve_threshold_count_rounded_below_whole():
    # 0.7 * 90 is 62.99999999999999 in floating point: the threshold must
    # still sit above the 64th largest product, as for a count of 63
    rng = np.random.default_rng(1)
    prods = rng.random(90)
    e = np.full(90, 0.5)
    none = np.zeros(90, dtype=bool)
    deltas = [solve_threshold((2.0 * prods, e, e), p3, 1e-8, none) for p3 in (0.7, np.nextafter(0.7, 1.0))]
    assert deltas[0] == deltas[1]
    assert 0 < deltas[0] - np.sort(prods)[::-1][63] < 11e-8


def test_solve_threshold_whole_count_with_close_neighbour():
    # p3*·m = 80 exactly, and the 80th largest product lies 4.7 smoothing
    # scales above the 81st: the two rows share one row's weight between them
    rng = np.random.default_rng(34)
    prods = np.sort(rng.random(100))
    q = prods[19]
    prods[20] = q + 4.7e-8
    e = np.full(100, 0.5)
    delta = solve_threshold((2.0 * prods, e, e), 0.8, 1e-8, np.zeros(100, dtype=bool))
    k = _smooth_k(prods, prods, delta, 1e-8)
    assert abs(np.mean(k) - 0.8) <= 1e-9
    assert q < delta < q + 4.7e-8


def test_solve_threshold_full_mass_returns_zero():
    hs = np.array([0.4, 0.6, 0.8])
    e = np.full(3, 0.5)
    delta = solve_threshold((hs, e, e), 1.0, 1e-8, np.zeros(3, dtype=bool))
    assert delta < np.min(hs * 0.5)
    assert delta == pytest.approx(0.0)


def test_solve_threshold_unattainable():
    hs = np.array([0.4, 0.6, 0.8])
    e = np.full(3, 0.5)
    with pytest.raises(UnattainableProportionError):
        solve_threshold((hs, e, e), 0.9, 1e-8, np.array([True, False, False]))


def test_solve_threshold_degenerate_plateau():
    hs = np.full(50, 0.4)
    e = np.full(50, 0.5)
    with pytest.raises(DegenerateScoresError):
        solve_threshold((hs, e, e), 0.5, 1e-8, np.zeros(50, dtype=bool))


EPS = 1e-8
# a row's (hs, e1) with e0 = 1 - e1: ordinary products, or products of 0
# to 80 smoothing scales, around the 40 below which a weight at delta = 0
# is not exactly 1
_rows = st.one_of(
    st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 0.95)),
    st.tuples(st.integers(0, 160).map(lambda k: k * EPS), st.just(0.5)),
)


@st.composite
def _threshold_problems(draw):
    pool = draw(st.lists(_rows, min_size=2, max_size=30))
    m = draw(st.integers(2, 150))
    # rows drawn from a small pool repeat, so products tie
    hs, e1 = np.array([pool[i] for i in draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=m, max_size=m))]).T
    excluded = np.array(draw(st.lists(st.integers(0, 7).map(lambda v: v == 0), min_size=m, max_size=m)))
    kept = int(m - excluded.sum())
    if kept and draw(st.booleans()):
        p3_star = draw(st.integers(1, kept)) / m   # a whole p3*·m
    else:
        p3_star = draw(st.floats(0.0, 1.0, exclude_min=True)) * max(kept, 1) / m
    return (hs, e1, 1.0 - e1), p3_star, excluded


def _smooth_every_row(min_prods, lo, hi, epsilon):
    return np.zeros(min_prods.size), np.arange(min_prods.size)


def _solve(scores, p3_star, excluded):
    try:
        return solve_threshold(scores, p3_star, EPS, excluded)
    except (UnattainableProportionError, DegenerateScoresError, NotConvergedError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_threshold_problems())
def test_windowed_solve_property(problem):
    scores, p3_star, excluded = problem
    delta = _solve(scores, p3_star, excluded)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_saturation", _smooth_every_row)
        reference = _solve(scores, p3_star, excluded)
    # smoothing only the rows near the bracket changes no bit of the solve
    assert delta == reference
    if isinstance(delta, type):
        return
    hs, e1, e0 = scores
    k = np.where(excluded, 0.0, _smooth_k(hs * e1, hs * e0, delta, EPS))
    assert abs(np.mean(k) - p3_star) <= MEAN_TOL
    # the (j+1)-th largest kept min product, as in the sort-quantile oracle
    min_prods = np.sort(np.minimum(hs * e1, hs * e0)[~excluded])[::-1]
    count = p3_star * len(hs)
    if abs(count - round(count)) <= 4.0 * np.spacing(count):
        count = round(count)
    j = int(np.floor(count))
    if j < min_prods.size:
        assert abs(delta - min_prods[j]) < 1e-4


def test_mean_smooth_inclusion_nonincreasing_in_delta():
    rng = np.random.default_rng(9)
    for _ in range(5):
        prods = rng.random(80)
        deltas = np.sort(rng.random(25))
        means = [np.mean(_smooth_k(prods, prods, d, 1e-8)) for d in deltas]
        assert np.all(np.diff(means) <= 1e-15)


def _fits_for(q):
    sampling = GlmFit(np.array([-1.0] + [0.5] * (q - 1)), GlmFamily.BERNOULLI_LOGIT, True, 5)
    propensity = GlmFit(np.zeros(q), GlmFamily.BERNOULLI_LOGIT, True, 0)
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
    # p3 is the mean smooth inclusion weight at delta*
    x_t = data.x[data.target_mask]
    hs, e1 = predict_mean(sampling, x_t), predict_mean(propensity, x_t)
    assert np.mean(_membership(hs * e1, hs * (1.0 - e1), part.delta_star, part.epsilon)) == part.p_hat[2]


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
    sampling = GlmFit(np.array([-1.0, 0.5, 0.5, 0.0]), GlmFamily.BERNOULLI_LOGIT, True, 5)
    propensity = GlmFit(np.zeros(4), GlmFamily.BERNOULLI_LOGIT, True, 0)
    part = partition_population(data, sampling, propensity, x2[:, 3] == 1.0, 0.9)
    c1, c2, c3 = part.counts
    assert c1 == int(0.02 * n2)
    assert part.p_hat[0] == pytest.approx(0.02, abs=1e-12)
    assert part.p_hat[2] == pytest.approx(0.9, abs=1e-6)
    assert c3 / n2 == pytest.approx(0.9, abs=1e-3)
