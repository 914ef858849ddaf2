"""The design matrix is column-major wherever a Dataset is built or its
rows are gathered, and ``take_rows`` gathers exactly the rows numpy's
indexing picks."""

import numpy as np
import pytest

from extval import Dataset, DgpConfig, generate_cohort, make_dataset
from extval.cli import load_dataset
from extval.data import take_rows

ROLES = {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2"]}


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("s,a,y,x1,x2\n1,1,2.0,0.1,0.2\n1,0,1.5,0.3,-0.4\n0,,,0.5,0.6\n0,,,-0.7,0.8\n")
    return path


def _column_major(x):
    return x.flags.f_contiguous and x.ndim == 2 and x.shape[0] > 1 and x.shape[1] > 1


def _refuse(*args, **kwargs):
    raise ValueError("numpy's reader is off")


@pytest.mark.parametrize("numpy", [True, False])
def test_load_dataset_gives_a_column_major_design(small_csv, monkeypatch, numpy):
    # whether numpy's reader or the csv module reads the rows
    if not numpy:
        monkeypatch.setattr(np, "loadtxt", _refuse)
    data, columns = load_dataset(str(small_csv), ROLES)
    assert _column_major(data.x)
    # each covariate's column views the design
    assert np.shares_memory(columns["x1"], data.x) and columns["x2"].flags.c_contiguous


def test_generated_and_assembled_designs_are_column_major():
    data, _ = generate_cohort(DgpConfig(n_total=20_000), [3, 1])
    assert _column_major(data.x)
    rng = np.random.default_rng(4)
    made = make_dataset(rng.standard_normal((6, 3)), [1, 0, 1, 0, 1, 0], rng.standard_normal(6),
                        rng.standard_normal((4, 3)))
    assert _column_major(made.x)


def test_dataset_copies_only_a_row_major_design():
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(4), rng.standard_normal(4)])
    s, a, y = np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, np.nan, np.nan]), np.array([0.5, 1.5, np.nan, np.nan])
    copied = Dataset(s=s, a=a, y=y, x=x)
    assert _column_major(copied.x) and copied.x is not x and np.array_equal(copied.x, x)
    fortran = np.asfortranarray(x)
    assert Dataset(s=s, a=a, y=y, x=fortran).x is fortran


def test_subset_and_trial_rows_are_column_major_and_exact():
    data, _ = generate_cohort(DgpConfig(n_total=20_000), [3, 2])
    idx = np.random.default_rng(6).integers(0, data.n, data.n)
    sub = data.subset(idx)
    assert _column_major(sub.x) and _column_major(data.x_trial)
    assert sub.x.tobytes("F") == np.asfortranarray(data.x[idx]).tobytes("F")
    assert data.x_trial.tobytes("F") == np.asfortranarray(data.x[data.trial_mask]).tobytes("F")


@pytest.mark.parametrize("order", ["C", "F"])
def test_take_rows_gathers_within_columns(order):
    rng = np.random.default_rng(7)
    x = np.asarray(rng.standard_normal((50, 4)), order=order)
    for rows in (rng.integers(0, 50, 80), np.array([3, 3, 0]), rng.random(50) < 0.4,
                 np.zeros(50, dtype=bool), np.array([], dtype=int)):
        got = take_rows(x, rows)
        assert got.flags.f_contiguous and got.shape == x[rows].shape
        assert np.array_equal(got, x[rows])
