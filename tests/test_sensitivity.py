import numpy as np
import pytest

from extval import (
    ConfigError,
    DimensionError,
    EmptyGroupError,
    GlmFamily,
    GlmFit,
    SensitivityInput,
    epd_estimate,
    extrapolate_group_ate,
    gpd_estimate,
    sensitivity_sweep,
)

APPLICATION_INPUT = SensitivityInput(
    tau3=0.249,
    tau3_ci=(0.249 - 1.96 * 0.0326, 0.249 + 1.96 * 0.0326),
    p1=0.02,
    p2=0.08,
    p3_star=0.90,
    zeta1=0.387,
    zeta2=0.225,
)


def test_gpd_identity_at_unit_parameters():
    est = gpd_estimate(APPLICATION_INPUT, 1.0, 1.0)
    assert est.estimate == APPLICATION_INPUT.tau3


def test_gpd_negative_parameters_keep_effect_positive():
    est = gpd_estimate(APPLICATION_INPUT, -4.0, -4.0)
    assert est.estimate == pytest.approx(0.1245, abs=1e-4)
    assert est.ci_low <= est.estimate <= est.ci_high


def test_gpd_zero_tau3_is_flat():
    inp = SensitivityInput(0.0, (0.0, 0.0), 0.02, 0.08, 0.90)
    for k1 in (-4.0, 0.0, 3.0):
        assert gpd_estimate(inp, k1, 2.0).estimate == 0.0


def test_gpd_ci_endpoints_swap_under_negative_factor():
    inp = SensitivityInput(1.0, (0.6, 1.4), 0.3, 0.3, 0.4)
    est = gpd_estimate(inp, -4.0, -4.0)   # factor = -2.0
    assert est.ci_low < est.ci_high
    lo3, hi3 = inp.tau3_ci
    assert est.ci_low == pytest.approx(-2.0 * hi3)
    assert est.ci_high == pytest.approx(-2.0 * lo3)


def test_epd_application_arithmetic():
    est = epd_estimate(APPLICATION_INPUT, 1.0, 1.0)
    assert est.estimate == pytest.approx(0.2498, abs=1e-4)
    zero = epd_estimate(APPLICATION_INPUT, 0.0, 0.0)
    assert zero.estimate == pytest.approx(0.9 * 0.249, abs=1e-12)


def test_epd_without_leftover_groups():
    inp = SensitivityInput(0.5, (0.3, 0.7), 0.0, 0.0, 1.0, zeta1=9.0, zeta2=-9.0)
    for k in (-4.0, 0.0, 4.0):
        assert epd_estimate(inp, k, k).estimate == pytest.approx(0.5)


def test_epd_requires_zeta():
    inp = SensitivityInput(0.5, (0.3, 0.7), 0.1, 0.1, 0.8)
    with pytest.raises(ConfigError):
        epd_estimate(inp, 1.0, 1.0)


def test_gpd_epd_coincide_when_zeta_equals_tau3():
    rng = np.random.default_rng(77)
    for _ in range(25):
        p1, p2 = rng.random(2) * 0.3
        tau3, half = rng.standard_normal(), rng.random()
        inp = SensitivityInput(tau3, (tau3 - half, tau3 + half), p1, p2, 1.0 - p1 - p2,
                               zeta1=tau3, zeta2=tau3)
        k1, k2 = rng.standard_normal(2) * 3
        assert gpd_estimate(inp, k1, k2).estimate == pytest.approx(
            epd_estimate(inp, k1, k2).estimate, abs=1e-12
        )


def test_affine_structure_in_k():
    inp = APPLICATION_INPUT
    for fn, c1, c2 in (
        (gpd_estimate, inp.p1 * inp.tau3, inp.p2 * inp.tau3),
        (epd_estimate, inp.p1 * inp.zeta1, inp.p2 * inp.zeta2),
    ):
        base = fn(inp, 0.0, 0.0).estimate
        assert fn(inp, 1.0, 0.0).estimate - base == pytest.approx(c1, abs=1e-12)
        assert fn(inp, 0.0, 1.0).estimate - base == pytest.approx(c2, abs=1e-12)
        assert fn(inp, 2.5, -1.5).estimate == pytest.approx(
            base + 2.5 * c1 - 1.5 * c2, abs=1e-12
        )


def test_gpd_slope_along_diagonal():
    grid = sensitivity_sweep(APPLICATION_INPUT, list(range(-4, 5)), [0.0], "gpd")
    vals = [r.estimate for r in grid.rows if r.k2 == 0.0]
    diffs = np.diff(vals)
    assert np.allclose(diffs, APPLICATION_INPUT.p1 * APPLICATION_INPUT.tau3)
    diag = [gpd_estimate(APPLICATION_INPUT, k, k).estimate for k in range(-4, 5)]
    assert np.allclose(np.diff(diag), (0.02 + 0.08) * 0.249)
    assert np.diff(diag)[0] == pytest.approx(0.0249, abs=1e-12)


def test_sweep_shape_order_and_determinism():
    grid = sensitivity_sweep(APPLICATION_INPUT, list(range(-4, 5)), list(range(-4, 5)), "epd")
    assert len(grid.rows) == 81
    ks = [(r.k1, r.k2) for r in grid.rows]
    assert ks == [(k1, k2) for k1 in range(-4, 5) for k2 in range(-4, 5)]
    again = sensitivity_sweep(APPLICATION_INPUT, list(range(-4, 5)), list(range(-4, 5)), "epd")
    assert grid == again


def test_singleton_sweep_matches_pointwise():
    grid = sensitivity_sweep(APPLICATION_INPUT, [1.0], [1.0], "gpd")
    assert len(grid.rows) == 1
    assert grid.rows[0] == gpd_estimate(APPLICATION_INPUT, 1.0, 1.0)


def test_sweep_csv_layout():
    grid = sensitivity_sweep(APPLICATION_INPUT, [1.0, 2.0], [1.0], "gpd")
    lines = grid.to_csv().strip().splitlines()
    assert lines[0] == "k1,k2,assumption,tau_hat,ci_low,ci_high"
    assert len(lines) == 3
    assert lines[1].startswith("1.0,1.0,gpd,")


def test_sweep_csv_numpy_grid_parses():
    # a numpy grid must not leak numpy reprs such as np.float64(-1.0)
    grid = sensitivity_sweep(APPLICATION_INPUT, np.linspace(-1, 1, 3), np.array([1.0]), "epd")
    lines = grid.to_csv().strip().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        k1, k2, assumption, *rest = line.split(",")
        assert assumption == "epd"
        assert all(np.isfinite(float(cell)) for cell in (k1, k2, *rest))
    assert lines[1].startswith("-1.0,1.0,epd,")


def test_sweep_input_validation():
    with pytest.raises(ConfigError):
        sensitivity_sweep(APPLICATION_INPUT, [], [1.0], "gpd")
    with pytest.raises(ConfigError):
        sensitivity_sweep(APPLICATION_INPUT, [np.inf], [1.0], "gpd")
    with pytest.raises(ConfigError):
        sensitivity_sweep(APPLICATION_INPUT, [1.0], [1.0], "linear")


def test_extrapolate_group_cases():
    gauss = GlmFamily.GAUSSIAN_IDENTITY
    same = GlmFit(np.array([1.0, 2.0]), gauss, True, 1)
    x = np.column_stack([np.ones(8), np.linspace(-3, 3, 8)])
    assert extrapolate_group_ate((same, same), x) == 0.0
    shifted = GlmFit(np.array([1.0 + 0.75, 2.0]), gauss, True, 1)
    assert extrapolate_group_ate((shifted, same), x) == pytest.approx(0.75)
    with pytest.raises(EmptyGroupError):
        extrapolate_group_ate((same, same), np.empty((0, 2)))
    # one target row is a design of one row, not a 1-d row
    with pytest.raises(DimensionError):
        extrapolate_group_ate((same, same), x[0])


def test_input_share_validation():
    with pytest.raises(ConfigError):
        SensitivityInput(0.1, (0.0, 0.2), 0.3, 0.2, 0.6)   # shares exceed 1
    with pytest.raises(ConfigError):
        SensitivityInput(0.1, (0.0, 0.2), -0.1, 0.2, 0.9)


def test_input_interval_validation():
    with pytest.raises(ConfigError, match="reversed"):
        SensitivityInput(0.1, (0.2, 0.0), 0.1, 0.1, 0.8)
    # no variance, no interval: NaN ends pass through to every row
    inp = SensitivityInput(0.1, (np.nan, np.nan), 0.1, 0.1, 0.8, zeta1=0.0, zeta2=0.0)
    for fn in (gpd_estimate, epd_estimate):
        est = fn(inp, 2.0, -1.0)
        assert np.isfinite(est.estimate) and np.isnan(est.ci_low) and np.isnan(est.ci_high)

